//! The four independent format constants, pinned as one tuple. Each one
//! moves alone in the code, but a bump of one can imply a bump of another
//! (DESIGN.md, "Format compatibility"): this test makes whoever moves one
//! read that table before they move on.

#[test]
fn format_constants_move_together() {
    assert_eq!(
        (
            gpu_arch::ARCH_DESC_VERSION,
            gpu_snapshot::FORMAT_VERSION,
            latency_core::CACHE_FORMAT_VERSION,
            gpu_serve::spec::SPEC_VERSION,
        ),
        (2, 5, 3, 1),
        "a format constant moved: read the \"Format compatibility\" table in DESIGN.md, \
         make the bumps it implies, then update that table and this tuple together"
    );
}
