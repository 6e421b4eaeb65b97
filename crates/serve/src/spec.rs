//! Job specifications: the JSON schema clients submit, its typed parse, and
//! the deterministic job identity derived from it.
//!
//! A spec names an architecture (a preset token or an inline hex-encoded
//! [`ArchDesc`] frame) and one job kind — a chase sweep grid or a
//! checkpointed BFS traversal. Parsing is strict: every malformed input maps
//! to a [`SpecError`] with a stable machine-readable [`SpecError::code`], so
//! the daemon can answer bad submissions with typed JSON errors instead of
//! dying or silently coercing.
//!
//! Job identity ([`JobSpec::job_id`]) is a [`StableHasher`] digest over the
//! *resolved* architecture description ([`ArchDesc::hash_desc`]) plus the
//! job-kind fields. Two clients submitting the same work — whether via the
//! same preset name or an identical inline frame — therefore collide onto
//! one job, which is what makes cross-client dedup and restart recovery
//! possible.

use gpu_sim::{ArchDesc, GpuConfig};
use gpu_snapshot::{Decoder, Encoder, StableHasher};
use gpu_trace::json::{Value, Writer};
use gpu_workloads::BfsExperiment;
use latency_core::{ArchPreset, ChaseParams, ChaseSpace};

/// Version tag folded into every job id; bump when the spec schema changes
/// meaning so stale persisted jobs are not misread as current ones.
pub const SPEC_VERSION: u32 = 1;

/// Upper bound on sweep footprints (1 GiB): anything larger is a typo or a
/// resource-exhaustion attempt, not a plausible chase working set.
pub const MAX_FOOTPRINT: u64 = 1 << 30;

/// Upper bound on BFS graph size; keeps a single job's memory bounded.
pub const MAX_NODES: u32 = 1 << 22;

/// Upper bound on a BFS `seed`: the parser holds numbers as `f64`, so
/// 2^53 and 2^53 + 1 arrive as the same value — and would share a job id
/// while naming different graphs. Below 2^53 every integer is exact.
pub const MAX_SEED: u64 = (1 << 53) - 1;

/// Where the architecture comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchSource {
    /// One of the registered per-generation presets.
    Preset(ArchPreset),
    /// An inline hex-encoded `ArchDesc` snapshot frame.
    Inline(Box<ArchDesc>),
}

/// The work itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// A footprint × stride pointer-chase grid (paper §II methodology).
    Sweep {
        /// Working-set sizes in bytes.
        footprints: Vec<u64>,
        /// Chain strides in bytes (multiples of 8).
        strides: Vec<u64>,
        /// Memory space walked.
        space: ChaseSpace,
    },
    /// A checkpointed mask-BFS traversal (long job; survives daemon death).
    Bfs {
        /// Graph and launch geometry.
        exp: BfsExperiment,
        /// Checkpoint cadence in cycles.
        checkpoint_every: u64,
    },
}

/// A fully parsed, validated job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Architecture under test.
    pub arch: ArchSource,
    /// Shrink the machine to the single-SM microbench variant
    /// ([`ArchDesc::microbench`]) before building the config.
    pub microbench: bool,
    /// What to run.
    pub kind: JobKind,
}

/// Everything that can be wrong with a submitted spec. Each variant carries
/// a stable `code()` that ends up in the JSON error event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// `"preset"` named no known chip or generation.
    UnknownPreset(String),
    /// The inline `"arch"` hex frame failed to decode or validate.
    BadArchFrame(String),
    /// Neither `"preset"` nor `"arch"` was given (or both were).
    MissingArch(&'static str),
    /// Neither `"sweep"` nor `"bfs"` was given (or both were).
    UnknownWorkload(&'static str),
    /// A sweep expanded to zero runnable points.
    EmptyGrid(String),
    /// A field had the wrong type, range, or alignment.
    BadField(String),
}

impl SpecError {
    /// Stable machine-readable error code for the JSON protocol.
    pub fn code(&self) -> &'static str {
        match self {
            SpecError::UnknownPreset(_) => "unknown_preset",
            SpecError::BadArchFrame(_) => "bad_arch_frame",
            SpecError::MissingArch(_) => "missing_arch",
            SpecError::UnknownWorkload(_) => "unknown_workload",
            SpecError::EmptyGrid(_) => "empty_grid",
            SpecError::BadField(_) => "bad_field",
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownPreset(p) => write!(
                f,
                "unknown preset {p:?} ({})",
                latency_core::cli::valid_presets()
            ),
            SpecError::BadArchFrame(e) => write!(f, "bad arch frame: {e}"),
            SpecError::MissingArch(e) => write!(f, "{e}"),
            SpecError::UnknownWorkload(e) => write!(f, "{e}"),
            SpecError::EmptyGrid(e) => write!(f, "empty grid: {e}"),
            SpecError::BadField(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Canonical lowercase token for a preset, used in persisted specs and job
/// hashing-stable display (`ArchPreset::parse` accepts it back). Delegates
/// to [`ArchPreset::token`], the registry's single source of truth.
pub fn preset_token(p: ArchPreset) -> &'static str {
    p.token()
}

/// Encodes bytes as lowercase hex.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decodes lowercase/uppercase hex into bytes.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex string".to_string());
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let digits = s.as_bytes();
    for pair in digits.chunks(2) {
        let hi = (pair[0] as char).to_digit(16);
        let lo = (pair[1] as char).to_digit(16);
        match (hi, lo) {
            (Some(h), Some(l)) => out.push((h * 16 + l) as u8),
            _ => return Err(format!("non-hex byte in {:?}", pair)),
        }
    }
    Ok(out)
}

/// Serializes an `ArchDesc` as the hex frame accepted by `"arch"`.
pub fn encode_arch_frame(desc: &ArchDesc) -> String {
    let mut e = Encoder::new();
    desc.encode_state(&mut e);
    hex_encode(&e.finish())
}

fn decode_arch_frame(hex: &str) -> Result<ArchDesc, SpecError> {
    let bytes = hex_decode(hex).map_err(SpecError::BadArchFrame)?;
    let mut d = Decoder::open(&bytes).map_err(|e| SpecError::BadArchFrame(e.to_string()))?;
    let desc = ArchDesc::decode(&mut d).map_err(|e| SpecError::BadArchFrame(e.to_string()))?;
    d.expect_end()
        .map_err(|e| SpecError::BadArchFrame(e.to_string()))?;
    desc.validate()
        .map_err(|e| SpecError::BadArchFrame(e.to_string()))?;
    Ok(desc)
}

fn field_u64(obj: &Value, key: &str, max: u64) -> Result<u64, SpecError> {
    let v = obj
        .get(key)
        .ok_or_else(|| SpecError::BadField(format!("missing field {key:?}")))?;
    num_u64(v, key, max)
}

fn num_u64(v: &Value, key: &str, max: u64) -> Result<u64, SpecError> {
    let n = v
        .as_num()
        .ok_or_else(|| SpecError::BadField(format!("{key:?} must be a number")))?;
    if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0) {
        return Err(SpecError::BadField(format!(
            "{key:?} must be a non-negative integer"
        )));
    }
    if n > max as f64 {
        return Err(SpecError::BadField(format!(
            "{key:?} exceeds maximum {max}"
        )));
    }
    Ok(n as u64)
}

fn field_u64_list(obj: &Value, key: &str, max: u64) -> Result<Vec<u64>, SpecError> {
    let arr = obj
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| SpecError::BadField(format!("{key:?} must be an array of integers")))?;
    if arr.is_empty() {
        return Err(SpecError::EmptyGrid(format!("{key:?} is empty")));
    }
    arr.iter().map(|v| num_u64(v, key, max)).collect()
}

fn parse_arch(spec: &Value) -> Result<ArchSource, SpecError> {
    let preset = spec.get("preset");
    let arch = spec.get("arch");
    match (preset, arch) {
        (Some(_), Some(_)) => Err(SpecError::MissingArch(
            "give either \"preset\" or \"arch\", not both",
        )),
        (None, None) => Err(SpecError::MissingArch(
            "spec needs a \"preset\" name or an inline \"arch\" frame",
        )),
        (Some(p), None) => {
            let name = p
                .as_str()
                .ok_or_else(|| SpecError::BadField("\"preset\" must be a string".to_string()))?;
            let preset = ArchPreset::parse(name)
                .ok_or_else(|| SpecError::UnknownPreset(name.to_string()))?;
            Ok(ArchSource::Preset(preset))
        }
        (None, Some(a)) => {
            let hex = a
                .as_str()
                .ok_or_else(|| SpecError::BadField("\"arch\" must be a hex string".to_string()))?;
            Ok(ArchSource::Inline(Box::new(decode_arch_frame(hex)?)))
        }
    }
}

fn parse_sweep(sweep: &Value) -> Result<JobKind, SpecError> {
    let footprints = field_u64_list(sweep, "footprints", MAX_FOOTPRINT)?;
    let strides = field_u64_list(sweep, "strides", MAX_FOOTPRINT)?;
    for &s in &strides {
        if s < 8 || s % 8 != 0 {
            return Err(SpecError::BadField(format!(
                "stride {s} must be a positive multiple of 8"
            )));
        }
    }
    let space = match sweep.get("space").map(|v| v.as_str()) {
        None => ChaseSpace::Global,
        Some(Some("global")) => ChaseSpace::Global,
        Some(Some("local")) => ChaseSpace::Local,
        Some(other) => {
            return Err(SpecError::BadField(format!(
                "\"space\" must be \"global\" or \"local\", got {other:?}"
            )))
        }
    };
    let kind = JobKind::Sweep {
        footprints,
        strides,
        space,
    };
    if kind.sweep_points().is_empty() {
        return Err(SpecError::EmptyGrid(
            "every footprint/stride pair yields a chain shorter than 2".to_string(),
        ));
    }
    Ok(kind)
}

fn parse_bfs(bfs: &Value) -> Result<JobKind, SpecError> {
    let exp = BfsExperiment {
        nodes: field_u64(bfs, "nodes", MAX_NODES as u64)? as u32,
        degree: field_u64(bfs, "degree", 1 << 16)? as u32,
        seed: field_u64(bfs, "seed", MAX_SEED)?,
        block_dim: field_u64(bfs, "block_dim", 1 << 10)? as u32,
    };
    let checkpoint_every = field_u64(bfs, "checkpoint_every", u64::MAX)?;
    if !exp.is_runnable() || checkpoint_every == 0 {
        return Err(SpecError::BadField(
            "bfs nodes, degree, block_dim, and checkpoint_every must be positive".to_string(),
        ));
    }
    Ok(JobKind::Bfs {
        exp,
        checkpoint_every,
    })
}

impl JobKind {
    /// Expands a sweep into its runnable chase points (footprint-major,
    /// mirroring `latency_core::Sweep::run`: pairs whose chain would hold
    /// fewer than two elements are skipped). Empty for BFS jobs.
    pub fn sweep_points(&self) -> Vec<ChaseParams> {
        let JobKind::Sweep {
            footprints,
            strides,
            space,
        } = self
        else {
            return Vec::new();
        };
        let mut points = Vec::new();
        for &footprint in footprints {
            for &stride in strides {
                if stride == 0 || footprint / stride < 2 {
                    continue;
                }
                points.push(match space {
                    ChaseSpace::Global => ChaseParams::global(footprint, stride),
                    ChaseSpace::Local => ChaseParams::local(footprint, stride),
                });
            }
        }
        points
    }
}

impl JobSpec {
    /// Parses and validates an already-JSON-decoded spec object.
    ///
    /// # Errors
    ///
    /// Every malformed input maps to a typed [`SpecError`].
    pub fn parse(spec: &Value) -> Result<JobSpec, SpecError> {
        if !matches!(spec, Value::Obj(_)) {
            return Err(SpecError::BadField(
                "spec must be a JSON object".to_string(),
            ));
        }
        let arch = parse_arch(spec)?;
        let kind = match (spec.get("sweep"), spec.get("bfs")) {
            (Some(_), Some(_)) => {
                return Err(SpecError::UnknownWorkload(
                    "give either \"sweep\" or \"bfs\", not both",
                ))
            }
            (None, None) => {
                return Err(SpecError::UnknownWorkload(
                    "spec needs a \"sweep\" grid or a \"bfs\" workload",
                ))
            }
            (Some(sweep), None) => parse_sweep(sweep)?,
            (None, Some(bfs)) => parse_bfs(bfs)?,
        };
        // Sweeps default to the paper's single-SM microbench machine; BFS
        // runs the full chip unless asked otherwise.
        let default_microbench = matches!(kind, JobKind::Sweep { .. });
        let microbench = match spec.get("microbench") {
            None => default_microbench,
            Some(Value::Bool(b)) => *b,
            Some(_) => {
                return Err(SpecError::BadField(
                    "\"microbench\" must be a boolean".to_string(),
                ))
            }
        };
        Ok(JobSpec {
            arch,
            microbench,
            kind,
        })
    }

    /// Parses a spec from raw JSON text.
    ///
    /// # Errors
    ///
    /// JSON syntax errors surface as [`SpecError::BadField`].
    pub fn parse_str(text: &str) -> Result<JobSpec, SpecError> {
        let v = gpu_trace::json::parse(text)
            .map_err(|e| SpecError::BadField(format!("spec is not valid JSON: {e}")))?;
        JobSpec::parse(&v)
    }

    /// The resolved architecture description (after the microbench shrink).
    pub fn desc(&self) -> ArchDesc {
        let desc = match &self.arch {
            ArchSource::Preset(p) => p.desc(),
            ArchSource::Inline(d) => (**d).clone(),
        };
        if self.microbench {
            desc.microbench()
        } else {
            desc
        }
    }

    /// Builds the simulator config for this job.
    ///
    /// # Errors
    ///
    /// An inline frame that decodes but describes an unbuildable machine
    /// surfaces as [`SpecError::BadArchFrame`].
    pub fn build_config(&self) -> Result<GpuConfig, SpecError> {
        GpuConfig::from_arch(&self.desc()).map_err(|e| SpecError::BadArchFrame(e.to_string()))
    }

    /// Deterministic job identity: equal for equal work regardless of which
    /// client, connection, or daemon lifetime submitted it.
    pub fn job_id(&self) -> u64 {
        let mut h = StableHasher::new();
        h.u32(SPEC_VERSION);
        self.desc().hash_desc(&mut h);
        match &self.kind {
            JobKind::Sweep {
                footprints,
                strides,
                space,
            } => {
                h.u8(1);
                h.usize(footprints.len());
                for &f in footprints {
                    h.u64(f);
                }
                h.usize(strides.len());
                for &s in strides {
                    h.u64(s);
                }
                h.u8(match space {
                    ChaseSpace::Global => 0,
                    ChaseSpace::Local => 1,
                });
            }
            JobKind::Bfs {
                exp,
                checkpoint_every,
            } => {
                h.u8(2);
                h.u32(exp.nodes);
                h.u32(exp.degree);
                h.u64(exp.seed);
                h.u32(exp.block_dim);
                h.u64(*checkpoint_every);
            }
        }
        h.finish()
    }

    /// Canonical JSON rendering, stable across processes: persisted as
    /// `spec.json` in the job directory and re-parsed on boot recovery.
    pub fn canonical_json(&self) -> String {
        let mut w = Writer::compact();
        w.object().field("version", SPEC_VERSION);
        match &self.arch {
            ArchSource::Preset(p) => w.field("preset", preset_token(*p)),
            ArchSource::Inline(d) => w.field("arch", encode_arch_frame(d)),
        };
        w.field("microbench", self.microbench);
        match &self.kind {
            JobKind::Sweep {
                footprints,
                strides,
                space,
            } => {
                let space = match space {
                    ChaseSpace::Global => "global",
                    ChaseSpace::Local => "local",
                };
                w.key("sweep").object().field("footprints", &footprints[..]);
                w.field("strides", &strides[..]).field("space", space);
            }
            JobKind::Bfs {
                exp,
                checkpoint_every,
            } => {
                w.key("bfs").object();
                w.field("nodes", exp.nodes).field("degree", exp.degree);
                w.field("seed", exp.seed).field("block_dim", exp.block_dim);
                w.field("checkpoint_every", checkpoint_every);
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_spec(preset: &str) -> String {
        format!(
            "{{\"preset\":{preset:?},\"sweep\":{{\"footprints\":[4096,8192],\"strides\":[128]}}}}"
        )
    }

    #[test]
    fn parses_preset_sweep() {
        let spec = JobSpec::parse_str(&sweep_spec("gf106")).unwrap();
        assert_eq!(spec.arch, ArchSource::Preset(ArchPreset::FermiGf106));
        assert!(spec.microbench, "sweeps default to the microbench machine");
        assert_eq!(spec.kind.sweep_points().len(), 2);
    }

    #[test]
    fn unknown_preset_is_typed() {
        let err = JobSpec::parse_str(&sweep_spec("gtx9000")).unwrap_err();
        assert_eq!(err.code(), "unknown_preset");
        // The message enumerates every valid token so a client can self-fix.
        let msg = err.to_string();
        for p in ArchPreset::ALL {
            assert!(msg.contains(p.token()), "{} missing from {msg}", p.token());
        }
    }

    #[test]
    fn preset_token_roundtrips_through_parse() {
        for p in ArchPreset::ALL {
            assert_eq!(ArchPreset::parse(preset_token(p)), Some(p));
        }
    }

    #[test]
    fn inline_frame_roundtrips_and_matches_preset_id() {
        let desc = ArchPreset::FermiGf106.desc();
        let frame = encode_arch_frame(&desc);
        let inline = JobSpec::parse_str(&format!(
            "{{\"arch\":{frame:?},\"sweep\":{{\"footprints\":[4096,8192],\"strides\":[128]}}}}"
        ))
        .unwrap();
        let preset = JobSpec::parse_str(&sweep_spec("gf106")).unwrap();
        // Same machine, same grid: the ids collide by design so the daemon
        // dedups across the two spellings.
        assert_eq!(inline.job_id(), preset.job_id());
    }

    #[test]
    fn garbage_frame_is_typed() {
        for frame in ["zz", "abc", "00112233445566778899aabbccddeeff"] {
            let err = JobSpec::parse_str(&format!(
                "{{\"arch\":{frame:?},\"sweep\":{{\"footprints\":[4096],\"strides\":[128]}}}}"
            ))
            .unwrap_err();
            assert_eq!(err.code(), "bad_arch_frame", "frame {frame:?}");
        }
    }

    #[test]
    fn zero_point_grid_is_typed() {
        // 1024/2048 < 2 elements: the lone point is skipped, grid is empty.
        let err = JobSpec::parse_str(
            "{\"preset\":\"gf106\",\"sweep\":{\"footprints\":[1024],\"strides\":[2048]}}",
        )
        .unwrap_err();
        assert_eq!(err.code(), "empty_grid");
    }

    #[test]
    fn misaligned_stride_is_typed() {
        let err = JobSpec::parse_str(
            "{\"preset\":\"gf106\",\"sweep\":{\"footprints\":[4096],\"strides\":[100]}}",
        )
        .unwrap_err();
        assert_eq!(err.code(), "bad_field");
    }

    #[test]
    fn canonical_json_reparses_to_same_id() {
        for text in [
            sweep_spec("gk110"),
            "{\"preset\":\"gf100\",\"bfs\":{\"nodes\":1024,\"degree\":6,\"seed\":7,\
             \"block_dim\":64,\"checkpoint_every\":5000}}"
                .to_string(),
        ] {
            let spec = JobSpec::parse_str(&text).unwrap();
            let reparsed = JobSpec::parse_str(&spec.canonical_json()).unwrap();
            assert_eq!(reparsed, spec);
            assert_eq!(reparsed.job_id(), spec.job_id());
        }
    }

    /// `spec.json` files written by earlier builds must keep re-parsing to
    /// the id their directory is named after: the canonical bytes are fixed.
    #[test]
    fn canonical_json_is_pinned_byte_for_byte() {
        let sweep = JobSpec::parse_str(
            "{\"sweep\":{\"strides\":[128],\"space\":\"local\",\"footprints\":[4096,8192]},\
             \"microbench\":false,\"preset\":\"fermi\"}",
        )
        .unwrap();
        assert_eq!(
            sweep.canonical_json(),
            r#"{"version":1,"preset":"gf106","microbench":false,"sweep":{"footprints":[4096,8192],"strides":[128],"space":"local"}}"#
        );
        let bfs = JobSpec::parse_str(
            "{\"preset\":\"gf100\",\"bfs\":{\"nodes\":1024,\"degree\":6,\"seed\":9007199254740991,\
             \"block_dim\":64,\"checkpoint_every\":5000}}",
        )
        .unwrap();
        assert_eq!(
            bfs.canonical_json(),
            r#"{"version":1,"preset":"gf100","microbench":false,"bfs":{"nodes":1024,"degree":6,"seed":9007199254740991,"block_dim":64,"checkpoint_every":5000}}"#
        );
        let frame = encode_arch_frame(&ArchPreset::FermiGf106.desc());
        let inline = JobSpec::parse_str(&format!(
            "{{\"arch\":{frame:?},\"sweep\":{{\"footprints\":[4096],\"strides\":[128]}}}}"
        ))
        .unwrap();
        assert_eq!(
            inline.canonical_json(),
            format!(
                r#"{{"version":1,"arch":"{frame}","microbench":true,"sweep":{{"footprints":[4096],"strides":[128],"space":"global"}}}}"#
            )
        );
    }

    /// The parser holds numbers as `f64`: past 2^53 two different seeds
    /// would arrive as one value and share a job id.
    #[test]
    fn seeds_past_f64_exactness_are_rejected() {
        let bfs = |seed: &str| {
            JobSpec::parse_str(&format!(
                "{{\"preset\":\"gf106\",\"bfs\":{{\"nodes\":64,\"degree\":4,\"seed\":{seed},\
                 \"block_dim\":32,\"checkpoint_every\":1000}}}}"
            ))
        };
        assert!(bfs("9007199254740991").is_ok());
        for seed in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551615",
        ] {
            let err = bfs(seed).unwrap_err();
            assert_eq!(err.code(), "bad_field");
            assert!(err.to_string().contains("exceeds maximum"), "{err}");
        }
    }

    #[test]
    fn job_id_distinguishes_grids_and_machines() {
        let a = JobSpec::parse_str(&sweep_spec("gf106")).unwrap();
        // GF106 and GF100 share Fermi timing, so their *microbench* shrinks
        // are the same machine and dedup together by design; the full chips
        // (different SM counts) must not.
        assert_eq!(
            a.job_id(),
            JobSpec::parse_str(&sweep_spec("gf100")).unwrap().job_id()
        );
        let full = |preset: &str| {
            JobSpec::parse_str(&format!(
                "{{\"preset\":{preset:?},\"microbench\":false,\
                 \"sweep\":{{\"footprints\":[4096,8192],\"strides\":[128]}}}}"
            ))
            .unwrap()
            .job_id()
        };
        assert_ne!(full("gf106"), full("gf100"));
        let b = JobSpec::parse_str(&sweep_spec("gk110")).unwrap();
        let c = JobSpec::parse_str(
            "{\"preset\":\"gf106\",\"sweep\":{\"footprints\":[4096,8192],\"strides\":[256]}}",
        )
        .unwrap();
        assert_ne!(a.job_id(), b.job_id());
        assert_ne!(a.job_id(), c.job_id());
    }

    #[test]
    fn hex_roundtrip() {
        let bytes = [0u8, 1, 0xab, 0xff, 0x10];
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("0g").is_err());
        assert!(hex_decode("0").is_err());
    }
}
