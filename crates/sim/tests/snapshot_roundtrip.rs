//! Checkpoint codec integration tests: a snapshot taken mid-flight must
//! decode back into a simulator whose own snapshot is byte-identical
//! (encode → decode → encode equality across every serialized state type at
//! once), and malformed streams of every flavour must be rejected with a
//! typed [`SnapshotError`] — never a panic.

mod skip_harness;

use std::path::PathBuf;
use std::sync::Arc;

use gpu_isa::{AluOp, CmpOp, Kernel, KernelBuilder, Launch, Special, Width};
use gpu_sim::{CheckpointPolicy, Gpu, GpuConfig, RunOutcome, Sm, SmStats, StallReason};
use gpu_snapshot::{Decoder, Encoder, SnapshotError, FORMAT_VERSION, MAGIC};
use gpu_types::{Addr, SmId};

fn small_config() -> GpuConfig {
    let mut cfg = GpuConfig::fermi_gf100();
    cfg.num_sms = 2;
    cfg.num_partitions = 2;
    cfg.trace.enabled = true;
    cfg.trace.sample_interval = 16;
    cfg
}

/// A copy kernel: every thread loads one word and stores it shifted.
fn copy_kernel() -> gpu_isa::Kernel {
    let mut b = KernelBuilder::new("copy");
    let src = b.param(0);
    let dst = b.param(1);
    let gtid = b.special(Special::GlobalTid);
    let off = b.shl(gtid, 2);
    let sa = b.add(src, off);
    let da = b.add(dst, off);
    let v = b.ld_global(Width::W4, sa, 0);
    b.st_global(Width::W4, da, 0, v);
    b.exit();
    b.build().expect("valid kernel")
}

/// Launches the copy kernel and advances `cycles` ticks, leaving the GPU
/// mid-flight with live warps, occupied queues/MSHRs/networks and pending
/// DRAM traffic — the richest state a snapshot can capture.
fn mid_flight_gpu(cycles: u64) -> Gpu {
    let mut gpu = Gpu::new(small_config());
    gpu.set_tracing(true);
    let n = 2048u64;
    let src = gpu.alloc(4 * n, 128);
    let dst = gpu.alloc(4 * n, 128);
    for i in 0..n {
        gpu.device_mut().write_u32(src + 4 * i, (i * 3) as u32);
    }
    gpu.launch(
        copy_kernel(),
        Launch::new((n as u32).div_ceil(128), 128, vec![src.get(), dst.get()]),
    )
    .expect("launch");
    for _ in 0..cycles {
        gpu.tick();
    }
    gpu
}

#[test]
fn encode_decode_encode_is_byte_identical() {
    // Several depths: idle-after-launch, warm-up, deep mid-flight with the
    // memory system saturated, and fully drained.
    for cycles in [0u64, 10, 200, 1000] {
        let gpu = mid_flight_gpu(cycles);
        let bytes = gpu.snapshot();
        let restored = Gpu::restore(&bytes).expect("restore succeeds");
        assert_eq!(
            bytes,
            restored.snapshot(),
            "snapshot of restored GPU differs at {cycles} cycles"
        );
    }
}

#[test]
fn drained_gpu_roundtrips_too() {
    let mut gpu = mid_flight_gpu(0);
    gpu.run(10_000_000).expect("run drains");
    let bytes = gpu.snapshot();
    let restored = Gpu::restore(&bytes).expect("restore succeeds");
    assert_eq!(bytes, restored.snapshot());
    assert_eq!(gpu.summary(), restored.summary());
}

#[test]
fn truncated_stream_is_rejected_at_every_length() {
    let bytes = mid_flight_gpu(100).snapshot();
    // Every strict prefix must fail with a typed error, never a panic.
    // Stride keeps the test fast; the ends and the header region are dense.
    let mut cuts: Vec<usize> = (0..bytes.len().min(64)).collect();
    cuts.extend((64..bytes.len()).step_by(997));
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        let err = match Gpu::restore(&bytes[..cut]) {
            Err(e) => e,
            Ok(_) => panic!("prefix of {cut} bytes must fail to restore"),
        };
        assert!(
            matches!(
                err,
                SnapshotError::UnexpectedEof { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::UnsupportedVersion(_)
                    | SnapshotError::ChecksumMismatch { .. }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = mid_flight_gpu(50).snapshot();
    bytes[0] ^= 0xFF;
    assert!(matches!(Gpu::restore(&bytes), Err(SnapshotError::BadMagic)));
}

#[test]
fn wrong_version_is_rejected() {
    let mut bytes = mid_flight_gpu(50).snapshot();
    let future = (FORMAT_VERSION + 1).to_le_bytes();
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&future);
    assert!(matches!(
        Gpu::restore(&bytes),
        Err(SnapshotError::UnsupportedVersion(v)) if v == FORMAT_VERSION + 1
    ));
}

#[test]
fn payload_corruption_is_rejected_everywhere() {
    let bytes = mid_flight_gpu(100).snapshot();
    // Flip one byte at a spread of offsets; the checksum (or, for header
    // bytes, the frame validation) must catch every single one.
    for pos in (0..bytes.len()).step_by(501) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x5A;
        assert!(
            Gpu::restore(&bad).is_err(),
            "flip at byte {pos} was not detected"
        );
    }
}

#[test]
fn garbage_and_empty_streams_are_rejected() {
    assert!(matches!(
        Gpu::restore(&[]),
        Err(SnapshotError::UnexpectedEof { .. })
    ));
    assert!(Gpu::restore(b"not a snapshot at all").is_err());
    // A well-framed stream whose payload is not a GPU state.
    let mut e = gpu_snapshot::Encoder::new();
    e.str("hello");
    e.u64(42);
    assert!(Gpu::restore(&e.finish()).is_err());
}

#[test]
fn restored_gpu_completes_identically() {
    let mut original = mid_flight_gpu(300);
    let mut restored = Gpu::restore(&original.snapshot()).expect("restore");
    let a = original.run(10_000_000).expect("original drains");
    let b = restored.run(10_000_000).expect("restored drains");
    // Only host wall-clock may differ: the restored GPU lost the nanos
    // spent before the snapshot.
    assert_eq!(a, with_host_nanos(b, a.metrics.host_nanos));
    assert_eq!(a.content_hash, b.content_hash);
    assert_ne!(a.content_hash, 0);
}

fn with_host_nanos(summary: gpu_sim::RunSummary, host_nanos: u64) -> gpu_sim::RunSummary {
    gpu_sim::RunSummary {
        metrics: gpu_sim::MetricsReport {
            host_nanos,
            ..summary.metrics
        },
        ..summary
    }
}

#[test]
fn restore_rejects_a_kernel_reading_a_parameter_the_launch_lacks() {
    let mut gpu = Gpu::new(small_config());
    let mut b = KernelBuilder::new("k");
    b.param(0);
    b.exit();
    gpu.launch(b.build().expect("valid kernel"), Launch::new(1, 1, vec![7]))
        .expect("launch");
    let framed = gpu.snapshot();
    Gpu::restore(&framed).expect("the untampered checkpoint restores");

    // Same length, new checksum: only the launch check can tell.
    let mut tampered = payload(&framed).to_vec();
    let text = b"ld.param r0, [0]";
    let at = tampered
        .windows(text.len())
        .position(|w| w == text)
        .expect("the kernel's disassembly is in the checkpoint");
    tampered[at + text.len() - 2] = b'3';
    assert!(matches!(
        Gpu::restore(&frame(&tampered)),
        Err(SnapshotError::InvalidValue(_))
    ));
}

#[test]
fn resume_latest_picks_newest_checkpoint() {
    let dir = std::env::temp_dir().join(format!("gsnp-latest-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    assert!(Gpu::resume_latest(&dir)
        .expect("missing dir is None")
        .is_none());

    let mut gpu = mid_flight_gpu(100);
    gpu.write_checkpoint(&dir).expect("checkpoint 1");
    for _ in 0..100 {
        gpu.tick();
    }
    let at = gpu.now().get();
    gpu.write_checkpoint(&dir).expect("checkpoint 2");
    let resumed = Gpu::resume_latest(&dir)
        .expect("resume reads")
        .expect("checkpoint exists");
    assert_eq!(resumed.now().get(), at, "newest checkpoint wins");
    std::fs::remove_dir_all(&dir).ok();
}

/// The payload of a framed stream: between the header (magic, version,
/// length) and the checksum.
fn payload(framed: &[u8]) -> &[u8] {
    &framed[MAGIC.len() + 12..framed.len() - 8]
}

/// Frames `payload` as the encoder does, checksum included.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    payload.iter().for_each(|&b| e.u8(b));
    e.finish()
}

// ---- decoded indices into the SM's dense state ----------------------------
//
// The scoreboard is a bitset as wide as the kernel's register file and the
// pending loads are ordered by token, so a checkpoint must not be able to
// name a register the kernel lacks or a token the SM has yet to hand out.
// The cases splice one such value into the encoding of an idle SM, whose
// layout is fixed by the configuration.

/// The unframed encoding of an idle SM of `cfg`.
fn idle_sm_payload(cfg: &GpuConfig) -> Vec<u8> {
    let mut e = Encoder::new();
    Sm::new(SmId::new(0), Arc::new(cfg.clone())).encode_state(&mut e);
    payload(&e.finish()).to_vec()
}

fn restore_sm(
    cfg: &GpuConfig,
    payload: &[u8],
    kernel: Option<&Arc<Kernel>>,
) -> Result<(), SnapshotError> {
    let framed = frame(payload);
    let mut d = Decoder::open(&framed)?;
    let params: Arc<[u64]> = Arc::from([0u64, 0]);
    let mut sm = Sm::new(SmId::new(0), Arc::new(cfg.clone()));
    sm.restore_state(&mut d, kernel.map(|k| (k, &params)))?;
    d.expect_end()
}

/// `payload` with warp slot 0 holding one scoreboard reservation, on `reg`.
fn with_reservation(cfg: &GpuConfig, payload: &[u8], reg: u32) -> Vec<u8> {
    // Slot flags, CTA flags (a count and one byte each), then the
    // scoreboard: its slot count and slot 0's register count.
    let count_at = (8 + cfg.max_warps_per_sm) + (8 + cfg.max_ctas_per_sm) + 8;
    assert_eq!(payload[count_at..count_at + 8], [0; 8], "slot 0 is empty");
    let mut out = payload[..count_at].to_vec();
    out.extend(1u64.to_le_bytes());
    out.extend(reg.to_le_bytes());
    out.extend(&payload[count_at + 8..]);
    out
}

/// `payload` with one pending load under `token` and the SM's next token
/// set to `next_token`.
fn with_pending_load(payload: &[u8], token: u64, next_token: u64) -> Vec<u8> {
    // The encoding ends: pending-load count, next token, next request id,
    // rotation index, greedy warp (absent), age counter, statistics.
    let mut stats = Encoder::new();
    SmStats::default().encode_state(&mut stats);
    let count_at = payload.len() - (8 + 8 + 8 + 8 + 1 + 8 + stats.len());
    assert_eq!(
        payload[count_at..count_at + 16],
        [0; 16],
        "no load, token 0"
    );
    let mut out = payload[..count_at].to_vec();
    out.extend(1u64.to_le_bytes());
    out.extend(token.to_le_bytes());
    out.extend(0u64.to_le_bytes()); // warp slot
    out.push(0); // no destination register
    out.extend(0u64.to_le_bytes()); // pc
    out.extend(1u32.to_le_bytes()); // lines remaining
    out.extend(1u32.to_le_bytes()); // lines
    out.extend([0; 16]); // issue cycle, stall cycles at issue
    out.extend([0; 8 * StallReason::COUNT]);
    out.extend(next_token.to_le_bytes());
    out.extend(&payload[count_at + 16..]);
    out
}

#[test]
fn reservation_beyond_the_kernels_registers_is_rejected() {
    let cfg = small_config();
    let idle = idle_sm_payload(&cfg);
    let kernel = Arc::new(copy_kernel());
    let regs = u32::from(kernel.num_regs());
    restore_sm(&cfg, &idle, Some(&kernel)).expect("the idle SM restores");
    restore_sm(
        &cfg,
        &with_reservation(&cfg, &idle, regs - 1),
        Some(&kernel),
    )
    .expect("the kernel's last register may be reserved");
    for reg in [regs, 65_535, 65_536, u32::MAX] {
        assert!(
            matches!(
                restore_sm(&cfg, &with_reservation(&cfg, &idle, reg), Some(&kernel)),
                Err(SnapshotError::InvalidValue(_))
            ),
            "r{reg} restored into a {regs}-register kernel"
        );
    }
}

#[test]
fn reservation_without_a_launch_is_rejected() {
    let cfg = small_config();
    let idle = idle_sm_payload(&cfg);
    restore_sm(&cfg, &idle, None).expect("the idle SM restores without a launch");
    assert!(matches!(
        restore_sm(&cfg, &with_reservation(&cfg, &idle, 0), None),
        Err(SnapshotError::InvalidValue(_))
    ));
}

#[test]
fn pending_load_token_not_yet_issued_is_rejected() {
    let cfg = small_config();
    let idle = idle_sm_payload(&cfg);
    restore_sm(&cfg, &with_pending_load(&idle, 6, 7), None).expect("token 6 of 7 issued");
    for (token, next_token) in [(7, 7), (0, 0), (u64::MAX - 1, 7), (1 << 60, 1 << 59)] {
        assert!(
            matches!(
                restore_sm(&cfg, &with_pending_load(&idle, token, next_token), None),
                Err(SnapshotError::InvalidValue(_))
            ),
            "token {token} restored with {next_token} the next to issue"
        );
    }
}

// ---- a checkpoint an earlier build wrote ------------------------------------
//
// `tests/corpus/divergent_gather_c1200.ckpt` was written by the build whose
// executor still kept one register file per thread: `corpus_gpu()` run
// under `CheckpointPolicy { every: 1200, kill_at: Some(1200) }`, with all
// four warps inside the divergent loop. A warp encodes lane by lane from
// any layout, so the file restores, re-encodes to its own bytes, is the
// state this build reaches at that cycle, and finishes as an uninterrupted
// run does. It is also a seed for fuzzing the decoder.

const CORPUS: &[u8] = include_bytes!("../../../tests/corpus/divergent_gather_c1200.ckpt");
const CORPUS_KILL_AT: u64 = 1200;

/// Each lane sums `lane % 8 + 1` table words starting at its global id:
/// a loop whose trip count differs per lane, with a global load inside.
fn corpus_kernel() -> Kernel {
    let mut b = KernelBuilder::new("divergent_gather");
    let table = b.param(0);
    let out = b.param(1);
    let gtid = b.special(Special::GlobalTid);
    let lane = b.special(Special::LaneId);
    let trips = b.and(lane, 7);
    let i = b.mov(0i64);
    let acc = b.mov(0i64);
    let p = b.pred();
    b.while_loop(
        |b| {
            b.setp_to(p, CmpOp::Le, i, trips);
            p
        },
        |b| {
            let slot = b.add(gtid, i);
            let slot = b.and(slot, 255);
            let off = b.shl(slot, 2);
            let addr = b.add(table, off);
            let v = b.ld_global(Width::W4, addr, 0);
            b.alu_to(AluOp::Add, acc, acc, v);
            b.alu_to(AluOp::Add, i, i, 1i64);
        },
    );
    let off = b.shl(gtid, 2);
    let addr = b.add(out, off);
    b.st_global(Width::W4, addr, 0, acc);
    b.exit();
    b.build().expect("valid kernel")
}

/// A 2-SM GF100, tracing off, with caches cut to a few KiB of tags so the
/// checkpoint stays small; the kernel launched as four 16-lane CTAs.
/// Returns the GPU and the output array's address.
fn corpus_gpu() -> (Gpu, Addr) {
    let mut cfg = GpuConfig::fermi_gf100();
    cfg.num_sms = 2;
    cfg.num_partitions = 2;
    cfg.trace.enabled = false;
    if let Some(l1) = cfg.l1.as_mut() {
        l1.cache.sets = 8;
    }
    if let Some(l2) = cfg.l2.as_mut() {
        l2.cache.sets = 16;
    }
    let mut gpu = Gpu::new(cfg);
    let table = gpu.alloc(4 * 256, 128);
    let out = gpu.alloc(4 * 64, 128);
    for i in 0..256u64 {
        gpu.device_mut()
            .write_u32(table + 4 * i, (i * 7 + 1) as u32);
    }
    gpu.launch(
        corpus_kernel(),
        Launch::new(4, 16, vec![table.get(), out.get()]),
    )
    .expect("launches");
    (gpu, out)
}

#[test]
fn committed_checkpoint_resumes_like_an_uninterrupted_run() {
    let mut restored = Gpu::restore(CORPUS).expect("the committed checkpoint restores");
    assert!(restored.snapshot() == CORPUS, "re-encodes to its own bytes");
    assert_eq!(restored.now().get(), CORPUS_KILL_AT);

    let (mut killed, _) = corpus_gpu();
    let kill = CheckpointPolicy {
        kill_at: Some(CORPUS_KILL_AT),
        ..CheckpointPolicy::new(0, PathBuf::new())
    };
    assert!(matches!(
        killed.run_checkpointed(skip_harness::MAX_CYCLES, &kill),
        Ok(RunOutcome::Killed { .. })
    ));
    assert!(
        skip_harness::state_bytes(&killed) == skip_harness::state_bytes(&restored),
        "this build reaches the committed state at cycle {CORPUS_KILL_AT}"
    );

    let (mut uninterrupted, out) = corpus_gpu();
    let a = uninterrupted
        .run(skip_harness::MAX_CYCLES)
        .expect("the uninterrupted run drains");
    let b = restored
        .run(skip_harness::MAX_CYCLES)
        .expect("the resumed run drains");
    assert!(a.cycles > CORPUS_KILL_AT, "killed before the end");
    assert_eq!(a, with_host_nanos(b, a.metrics.host_nanos));
    let sums = uninterrupted.device().read_u32_slice(out, 64);
    assert_eq!(sums, restored.device().read_u32_slice(out, 64));
    for (t, &sum) in sums.iter().enumerate() {
        let words = (t..=t + t % 8).map(|j| (j % 256) as u32 * 7 + 1);
        assert_eq!(sum, words.sum::<u32>(), "thread {t}");
    }
}
