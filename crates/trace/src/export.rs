//! Counter samples as CSV, for scripts that want no trace viewer (an event
//! needs no sidecar: it is one `trace.json` line, its payload in `args`).

use crate::tracer::{CounterKind, CounterSample};

/// Serialises counter samples as CSV: a `cycle` column followed by one
/// column per counter, in [`CounterKind::ALL`] order.
pub fn counters_csv(samples: &[CounterSample]) -> String {
    let mut out = String::from("cycle");
    for kind in CounterKind::ALL {
        out.push(',');
        out.push_str(kind.name());
    }
    out.push('\n');
    for s in samples {
        out.push_str(&s.cycle.to_string());
        for v in s.values {
            out.push(',');
            out.push_str(&v.to_string());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// CSV rows re-parse to exactly the sampled values, column for column,
    /// with the header naming every counter in table order.
    #[test]
    fn csv_round_trips_field_for_field() {
        let mut values = [0u64; CounterKind::COUNT];
        for (i, v) in values.iter_mut().enumerate() {
            *v = (i as u64 + 1) * 3;
        }
        let samples = [
            CounterSample { cycle: 64, values },
            CounterSample {
                cycle: 128,
                values: values.map(|v| v * 10),
            },
        ];
        let serialized = counters_csv(&samples);
        let mut lines = serialized.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(header[0], "cycle");
        for (i, kind) in CounterKind::ALL.iter().enumerate() {
            assert_eq!(header[i + 1], kind.name());
        }
        for (line, sample) in lines.zip(&samples) {
            let cols: Vec<u64> = line.split(',').map(|c| c.parse().unwrap()).collect();
            assert_eq!(cols[0], sample.cycle);
            assert_eq!(&cols[1..], sample.values.as_slice());
        }
    }

    /// The escaping edge cases: quotes, backslashes, the named control
    /// escapes, `\uXXXX` controls and non-ASCII survive a full
    /// escape → parse round trip unchanged.
    #[test]
    fn escaping_survives_a_json_round_trip() {
        let nasty = "quote \" backslash \\ newline \n cr \r tab \t nul-ish \u{1} snow ☃";
        let mut serialized = String::new();
        json::escape_into(&mut serialized, nasty);
        assert!(serialized.contains("\\u0001"), "{serialized}");
        let v = json::parse(&serialized).expect("escaped string parses");
        assert_eq!(v.as_str(), Some(nasty));
    }

    #[test]
    fn csv_has_header_and_full_rows() {
        let samples = [CounterSample {
            cycle: 128,
            values: [7; CounterKind::COUNT],
        }];
        let text = counters_csv(&samples);
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("cycle,l1_mshr,"));
        assert_eq!(header.split(',').count(), 1 + CounterKind::COUNT);
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), 1 + CounterKind::COUNT);
        assert!(row.starts_with("128,7,"));
    }
}
