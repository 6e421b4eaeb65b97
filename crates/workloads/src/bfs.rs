//! Frontier-based breadth-first search — the paper's dynamic-latency
//! exemplar workload (§III, Figures 1 and 2).
//!
//! One kernel launch per BFS level, Rodinia-style: each thread takes one
//! frontier node, walks its CSR neighbor list, claims unvisited neighbors
//! and appends them to the next frontier with an atomic ticket. The
//! data-dependent `cols[e]` / `levels[nbr]` loads are exactly the
//! poorly-coalesced, hard-to-hide global accesses that make BFS
//! latency-critical.

use gpu_isa::{CmpOp, Kernel, KernelBuilder, Launch, Special, Width};
use gpu_sim::{CheckpointPolicy, Gpu, RunOutcome, SimError};
use gpu_snapshot::{Decoder, Encoder, SnapshotError};
use gpu_types::Addr;

use crate::graph::Graph;

/// Level marker for unvisited nodes.
pub const UNVISITED: u32 = u32::MAX;

/// Device-resident BFS state.
#[derive(Debug, Clone, Copy)]
pub struct BfsDevice {
    /// CSR row offsets (`n + 1` u32s).
    pub row_offsets: Addr,
    /// CSR column indices.
    pub cols: Addr,
    /// Per-node level array.
    pub levels: Addr,
    /// Frontier buffer A.
    pub frontier_a: Addr,
    /// Frontier buffer B.
    pub frontier_b: Addr,
    /// Next-frontier size counter.
    pub count: Addr,
    /// Node count.
    pub num_nodes: u32,
}

/// Uploads a graph and allocates BFS state on the device.
pub fn upload_graph(gpu: &mut Gpu, graph: &Graph) -> BfsDevice {
    let n = graph.num_nodes();
    let align = gpu.config().line_size;
    let row_offsets = gpu.alloc(4 * (n as u64 + 1), align);
    let cols = gpu.alloc(4 * graph.num_edges().max(1) as u64, align);
    let levels = gpu.alloc(4 * n as u64, align);
    let frontier_a = gpu.alloc(4 * n as u64, align);
    let frontier_b = gpu.alloc(4 * n as u64, align);
    let count = gpu.alloc(4, align);
    gpu.device_mut()
        .write_u32_slice(row_offsets, graph.row_offsets());
    gpu.device_mut().write_u32_slice(cols, graph.cols());
    BfsDevice {
        row_offsets,
        cols,
        levels,
        frontier_a,
        frontier_b,
        count,
        num_nodes: n,
    }
}

/// Builds the per-level BFS kernel.
///
/// Parameters: `[0]` row_offsets, `[1]` cols, `[2]` levels,
/// `[3]` frontier_in, `[4]` frontier_out, `[5]` count pointer,
/// `[6]` frontier size, `[7]` level being assigned.
pub fn build_bfs_kernel() -> Kernel {
    let mut b = KernelBuilder::new("bfs_level");
    let row_offsets = b.param(0);
    let cols = b.param(1);
    let levels = b.param(2);
    let frontier_in = b.param(3);
    let frontier_out = b.param(4);
    let count = b.param(5);
    let frontier_size = b.param(6);
    let next_level = b.param(7);

    let gtid = b.special(Special::GlobalTid);
    let active = b.setp(CmpOp::Lt, gtid, frontier_size);
    b.if_then(active, |b| {
        let fin_off = b.shl(gtid, 2);
        let fin_addr = b.add(frontier_in, fin_off);
        let node = b.ld_global(Width::W4, fin_addr, 0);
        let ro_off = b.shl(node, 2);
        let ro_addr = b.add(row_offsets, ro_off);
        let start = b.ld_global(Width::W4, ro_addr, 0);
        let end = b.ld_global(Width::W4, ro_addr, 4);
        let e = b.mov(start);
        let pred = b.pred();
        b.while_loop(
            |b| {
                b.setp_to(pred, CmpOp::Lt, e, end);
                pred
            },
            |b| {
                let col_off = b.shl(e, 2);
                let col_addr = b.add(cols, col_off);
                let nbr = b.ld_global(Width::W4, col_addr, 0);
                let lvl_off = b.shl(nbr, 2);
                let lvl_addr = b.add(levels, lvl_off);
                let lvl = b.ld_global(Width::W4, lvl_addr, 0);
                let unvisited = b.setp(CmpOp::Eq, lvl, UNVISITED as i64);
                b.if_then(unvisited, |b| {
                    b.st_global(Width::W4, lvl_addr, 0, next_level);
                    let ticket = b.atom_add(Width::W4, count, 0, 1);
                    let out_off = b.shl(ticket, 2);
                    let out_addr = b.add(frontier_out, out_off);
                    b.st_global(Width::W4, out_addr, 0, nbr);
                });
                b.alu_to(gpu_isa::AluOp::Add, e, e, 1);
            },
        );
    });
    b.exit();
    b.build()
        .expect("BFS kernel is well-formed by construction")
}

/// Result of a device BFS traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsRun {
    /// BFS levels executed (kernel launches).
    pub levels_run: u32,
    /// Frontier size after each level.
    pub frontier_sizes: Vec<u32>,
    /// Total simulated cycles over all launches.
    pub total_cycles: u64,
    /// Total warp instructions issued.
    pub instructions: u64,
}

/// Runs a full device BFS from `source`, launching one kernel per level.
///
/// # Errors
///
/// Propagates simulator errors (e.g. cycle-limit timeouts).
///
/// # Panics
///
/// Panics if `source` is out of range or `block_dim` is zero.
pub fn run_bfs(
    gpu: &mut Gpu,
    dev: &BfsDevice,
    source: u32,
    block_dim: u32,
) -> Result<BfsRun, SimError> {
    assert!(source < dev.num_nodes, "source out of range");
    assert!(block_dim > 0, "block_dim must be positive");
    // Initialize levels and the first frontier.
    let init: Vec<u32> = (0..dev.num_nodes)
        .map(|i| if i == source { 0 } else { UNVISITED })
        .collect();
    gpu.device_mut().write_u32_slice(dev.levels, &init);
    gpu.device_mut().write_u32(dev.frontier_a, source);

    let kernel = build_bfs_kernel();
    let mut frontier_size = 1u32;
    let mut level = 0u32;
    let mut result = BfsRun {
        levels_run: 0,
        frontier_sizes: Vec::new(),
        total_cycles: 0,
        instructions: 0,
    };
    let (mut fin, mut fout) = (dev.frontier_a, dev.frontier_b);
    while frontier_size > 0 && level < dev.num_nodes {
        gpu.device_mut().write_u32(dev.count, 0);
        let grid = frontier_size.div_ceil(block_dim);
        gpu.launch(
            kernel.clone(),
            Launch::new(
                grid,
                block_dim,
                vec![
                    dev.row_offsets.get(),
                    dev.cols.get(),
                    dev.levels.get(),
                    fin.get(),
                    fout.get(),
                    dev.count.get(),
                    frontier_size as u64,
                    (level + 1) as u64,
                ],
            ),
        )?;
        // `RunSummary` is cumulative across launches (per-SM counters are
        // never reset), so keep the latest values.
        let summary = gpu.run(500_000_000)?;
        result.instructions = summary.instructions;
        frontier_size = gpu.device().read_u32(dev.count);
        result.frontier_sizes.push(frontier_size);
        std::mem::swap(&mut fin, &mut fout);
        level += 1;
        result.levels_run = level;
    }
    result.total_cycles = gpu.now().get();
    Ok(result)
}

/// Reads back the level array.
pub fn read_levels(gpu: &Gpu, dev: &BfsDevice) -> Vec<u32> {
    gpu.device()
        .read_u32_slice(dev.levels, dev.num_nodes as usize)
}

// ---------------------------------------------------------------------------
// Rodinia-style mask BFS (the formulation GPGPU-Sim's standard suite uses,
// i.e. the kernel behind the paper's Figures 1 and 2): no frontier
// compaction, no atomics — per level, kernel 1 expands the nodes whose mask
// is set, kernel 2 commits the "updating" set and raises a stop flag.
// ---------------------------------------------------------------------------

/// Device-resident state of the Rodinia-style mask BFS.
#[derive(Debug, Clone, Copy)]
pub struct BfsMaskDevice {
    /// CSR row offsets.
    pub row_offsets: Addr,
    /// CSR column indices.
    pub cols: Addr,
    /// Per-node BFS level ("cost" in Rodinia).
    pub cost: Addr,
    /// Frontier mask: nodes to expand this level.
    pub mask: Addr,
    /// Nodes discovered this level, to be committed by kernel 2.
    pub updating: Addr,
    /// Visited flags.
    pub visited: Addr,
    /// Continue flag raised by kernel 2 when anything was discovered.
    pub more: Addr,
    /// Node count.
    pub num_nodes: u32,
}

impl BfsMaskDevice {
    /// The seven device arrays, in declaration (and host-tag) order.
    fn arrays(&self) -> [Addr; 7] {
        let d = self;
        [
            d.row_offsets,
            d.cols,
            d.cost,
            d.mask,
            d.updating,
            d.visited,
            d.more,
        ]
    }
}

/// Uploads a graph and allocates mask-BFS state.
pub fn upload_graph_mask(gpu: &mut Gpu, graph: &Graph) -> BfsMaskDevice {
    let n = graph.num_nodes();
    let align = gpu.config().line_size;
    let row_offsets = gpu.alloc(4 * (n as u64 + 1), align);
    let cols = gpu.alloc(4 * graph.num_edges().max(1) as u64, align);
    let cost = gpu.alloc(4 * n as u64, align);
    let mask = gpu.alloc(4 * n as u64, align);
    let updating = gpu.alloc(4 * n as u64, align);
    let visited = gpu.alloc(4 * n as u64, align);
    let more = gpu.alloc(4, align);
    gpu.device_mut()
        .write_u32_slice(row_offsets, graph.row_offsets());
    gpu.device_mut().write_u32_slice(cols, graph.cols());
    BfsMaskDevice {
        row_offsets,
        cols,
        cost,
        mask,
        updating,
        visited,
        more,
        num_nodes: n,
    }
}

/// Builds Rodinia BFS kernel 1: expand masked nodes.
///
/// Parameters: `[0]` row_offsets, `[1]` cols, `[2]` cost, `[3]` mask,
/// `[4]` updating, `[5]` visited, `[6]` n.
pub fn build_bfs_mask_kernel1() -> Kernel {
    let mut b = KernelBuilder::new("bfs_mask_expand");
    let row_offsets = b.param(0);
    let cols = b.param(1);
    let cost = b.param(2);
    let mask = b.param(3);
    let updating = b.param(4);
    let visited = b.param(5);
    let n = b.param(6);
    let gtid = b.special(Special::GlobalTid);
    let inb = b.setp(CmpOp::Lt, gtid, n);
    b.if_then(inb, |b| {
        let off = b.shl(gtid, 2);
        let mask_addr = b.add(mask, off);
        let m = b.ld_global(Width::W4, mask_addr, 0);
        let active = b.setp(CmpOp::Ne, m, 0);
        b.if_then(active, |b| {
            b.st_global(Width::W4, mask_addr, 0, 0);
            let cost_addr = b.add(cost, off);
            let my_cost = b.ld_global(Width::W4, cost_addr, 0);
            let next_cost = b.add(my_cost, 1);
            let ro_addr = b.add(row_offsets, off);
            let start = b.ld_global(Width::W4, ro_addr, 0);
            let end = b.ld_global(Width::W4, ro_addr, 4);
            let e = b.mov(start);
            let pred = b.pred();
            b.while_loop(
                |b| {
                    b.setp_to(pred, CmpOp::Lt, e, end);
                    pred
                },
                |b| {
                    let col_off = b.shl(e, 2);
                    let col_addr = b.add(cols, col_off);
                    let nbr = b.ld_global(Width::W4, col_addr, 0);
                    let nbr_off = b.shl(nbr, 2);
                    let vis_addr = b.add(visited, nbr_off);
                    let vis = b.ld_global(Width::W4, vis_addr, 0);
                    let fresh = b.setp(CmpOp::Eq, vis, 0);
                    b.if_then(fresh, |b| {
                        let c_addr = b.add(cost, nbr_off);
                        b.st_global(Width::W4, c_addr, 0, next_cost);
                        let u_addr = b.add(updating, nbr_off);
                        b.st_global(Width::W4, u_addr, 0, 1);
                    });
                    b.alu_to(gpu_isa::AluOp::Add, e, e, 1);
                },
            );
        });
    });
    b.exit();
    b.build()
        .expect("mask kernel 1 is well-formed by construction")
}

/// Builds Rodinia BFS kernel 2: commit updated nodes and raise the flag.
///
/// Parameters: `[0]` mask, `[1]` updating, `[2]` visited, `[3]` more, `[4]` n.
pub fn build_bfs_mask_kernel2() -> Kernel {
    let mut b = KernelBuilder::new("bfs_mask_commit");
    let mask = b.param(0);
    let updating = b.param(1);
    let visited = b.param(2);
    let more = b.param(3);
    let n = b.param(4);
    let gtid = b.special(Special::GlobalTid);
    let inb = b.setp(CmpOp::Lt, gtid, n);
    b.if_then(inb, |b| {
        let off = b.shl(gtid, 2);
        let u_addr = b.add(updating, off);
        let u = b.ld_global(Width::W4, u_addr, 0);
        let fresh = b.setp(CmpOp::Ne, u, 0);
        b.if_then(fresh, |b| {
            let mask_addr = b.add(mask, off);
            b.st_global(Width::W4, mask_addr, 0, 1);
            let vis_addr = b.add(visited, off);
            b.st_global(Width::W4, vis_addr, 0, 1);
            b.st_global(Width::W4, more, 0, 1);
            b.st_global(Width::W4, u_addr, 0, 0);
        });
    });
    b.exit();
    b.build()
        .expect("mask kernel 2 is well-formed by construction")
}

/// Runs the Rodinia-style mask BFS from `source`: two kernel launches per
/// level until no node is discovered. This is
/// [`run_bfs_mask_checkpointed`] under the null policy — there is one
/// level loop.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `source` is out of range or `block_dim` is zero.
pub fn run_bfs_mask(
    gpu: &mut Gpu,
    dev: &BfsMaskDevice,
    source: u32,
    block_dim: u32,
) -> Result<BfsRun, SimError> {
    match run_bfs_mask_checkpointed(gpu, dev, source, block_dim, &CheckpointPolicy::none())? {
        BfsMaskOutcome::Completed(run) => Ok(run),
        BfsMaskOutcome::Killed { .. } => unreachable!("the null policy has no kill switch"),
    }
}

/// Reads back the cost (level) array of a mask-BFS run.
pub fn read_costs(gpu: &Gpu, dev: &BfsMaskDevice) -> Vec<u32> {
    gpu.device()
        .read_u32_slice(dev.cost, dev.num_nodes as usize)
}

/// Seeds the device arrays for a mask BFS from `source`.
fn init_mask_state(gpu: &mut Gpu, dev: &BfsMaskDevice, source: u32) {
    let n = dev.num_nodes;
    let cost_init: Vec<u32> = (0..n)
        .map(|i| if i == source { 0 } else { UNVISITED })
        .collect();
    gpu.device_mut().write_u32_slice(dev.cost, &cost_init);
    let mut zeroes = vec![0u32; n as usize];
    gpu.device_mut().write_u32_slice(dev.updating, &zeroes);
    zeroes[source as usize] = 1;
    gpu.device_mut().write_u32_slice(dev.mask, &zeroes);
    gpu.device_mut().write_u32_slice(dev.visited, &zeroes);
}

// ---------------------------------------------------------------------------
// Checkpointed mask BFS: the host loop state rides inside the GPU checkpoint
// as an opaque tag, so a killed traversal resumes mid-level and completes
// cycle-identically to an uninterrupted one.
// ---------------------------------------------------------------------------

/// Kernel 1 (expand) of the tagged level is in flight.
const PHASE_EXPAND: u8 = 1;
/// Kernel 2 (commit) of the tagged level is in flight.
const PHASE_COMMIT: u8 = 2;

/// Outcome of a checkpointed mask-BFS traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BfsMaskOutcome {
    /// The traversal ran to completion.
    Completed(BfsRun),
    /// The deterministic kill switch fired at this cycle; resume from the
    /// newest checkpoint with [`resume_bfs_mask`].
    Killed {
        /// Cycle at which the run was killed.
        at: u64,
    },
}

fn encode_mask_tag(dev: &BfsMaskDevice, block_dim: u32, levels_run: u32, phase: u8) -> Vec<u8> {
    let mut e = Encoder::new();
    for addr in dev.arrays() {
        e.u64(addr.get());
    }
    e.u32(dev.num_nodes);
    e.u32(block_dim);
    e.u32(levels_run);
    e.u8(phase);
    e.finish()
}

fn decode_mask_tag(bytes: &[u8]) -> Result<(BfsMaskDevice, u32, u32, u8), SnapshotError> {
    let mut d = Decoder::open(bytes)?;
    let dev = BfsMaskDevice {
        row_offsets: Addr::new(d.u64()?),
        cols: Addr::new(d.u64()?),
        cost: Addr::new(d.u64()?),
        mask: Addr::new(d.u64()?),
        updating: Addr::new(d.u64()?),
        visited: Addr::new(d.u64()?),
        more: Addr::new(d.u64()?),
        num_nodes: d.u32()?,
    };
    let block_dim = d.u32()?;
    let levels_run = d.u32()?;
    let phase = d.u8()?;
    if block_dim == 0 || dev.num_nodes == 0 {
        return Err(SnapshotError::InvalidValue("BFS tag has empty geometry"));
    }
    if phase != PHASE_EXPAND && phase != PHASE_COMMIT {
        return Err(SnapshotError::InvalidValue("BFS tag has an unknown phase"));
    }
    d.expect_end()?;
    Ok((dev, block_dim, levels_run, phase))
}

/// Decodes just the device layout from a checkpoint's host tag, so a
/// resuming driver can read results back after the traversal completes.
///
/// # Errors
///
/// Rejects tags not written by [`run_bfs_mask_checkpointed`].
pub fn peek_mask_tag(bytes: &[u8]) -> Result<BfsMaskDevice, SnapshotError> {
    decode_mask_tag(bytes).map(|(dev, ..)| dev)
}

/// Runs the Rodinia-style mask BFS under a checkpoint policy: periodic
/// snapshots land in `policy.dir`, each carrying the host loop's position
/// (level and in-flight kernel) so [`resume_bfs_mask`] can pick the
/// traversal up mid-level. With `policy.kill_at` set, the run stops
/// deterministically at that cycle and reports [`BfsMaskOutcome::Killed`].
///
/// # Errors
///
/// Propagates simulator and checkpoint-write errors.
///
/// # Panics
///
/// Panics if `source` is out of range or `block_dim` is zero.
pub fn run_bfs_mask_checkpointed(
    gpu: &mut Gpu,
    dev: &BfsMaskDevice,
    source: u32,
    block_dim: u32,
    policy: &CheckpointPolicy,
) -> Result<BfsMaskOutcome, SimError> {
    assert!(source < dev.num_nodes, "source out of range");
    assert!(block_dim > 0, "block_dim must be positive");
    init_mask_state(gpu, dev, source);
    drive_mask_loop(gpu, dev, block_dim, 0, PHASE_EXPAND, false, policy)
}

/// Continues a mask BFS restored from a checkpoint (the in-flight kernel and
/// the host loop position both live in the checkpoint). The `gpu` must come
/// from [`Gpu::restore`] / [`Gpu::resume_latest`] on a checkpoint written by
/// [`run_bfs_mask_checkpointed`].
///
/// # Errors
///
/// Returns [`SimError::Checkpoint`] when the checkpoint carries no valid
/// BFS host tag; otherwise propagates simulator errors.
pub fn resume_bfs_mask(
    gpu: &mut Gpu,
    policy: &CheckpointPolicy,
) -> Result<BfsMaskOutcome, SimError> {
    let (dev, block_dim, levels_run, phase) = restored_position(gpu)?;
    drive_mask_loop(gpu, &dev, block_dim, levels_run, phase, true, policy)
}

/// The loop position a restored `gpu` carries in its host tag.
fn restored_position(gpu: &Gpu) -> Result<(BfsMaskDevice, u32, u32, u8), SimError> {
    decode_mask_tag(gpu.host_tag())
        .map_err(|e| SimError::Checkpoint(format!("checkpoint carries no BFS host tag: {e}")))
}

/// The one level loop: launches the kernel for `phase` (unless a restored
/// checkpoint already has it `in_flight`), runs it under `policy`, and
/// alternates expand/commit until the commit kernel discovers nothing.
/// Both kernels are built once per traversal. The host tag is refreshed at
/// every launch so any checkpoint written during the run carries the loop
/// position that produced it.
fn drive_mask_loop(
    gpu: &mut Gpu,
    dev: &BfsMaskDevice,
    block_dim: u32,
    mut levels_run: u32,
    mut phase: u8,
    mut in_flight: bool,
    policy: &CheckpointPolicy,
) -> Result<BfsMaskOutcome, SimError> {
    let n = dev.num_nodes;
    let grid = n.div_ceil(block_dim);
    let (expand, commit) = (build_bfs_mask_kernel1(), build_bfs_mask_kernel2());
    let [row_offsets, cols, cost, mask, updating, visited, more] = dev.arrays().map(Addr::get);
    let instructions = loop {
        if !in_flight {
            let (kernel, params) = if phase == PHASE_EXPAND {
                gpu.device_mut().write_u32(dev.more, 0);
                let params = vec![row_offsets, cols, cost, mask, updating, visited, n as u64];
                (expand.clone(), params)
            } else {
                let params = vec![mask, updating, visited, more, n as u64];
                (commit.clone(), params)
            };
            gpu.launch(kernel, Launch::new(grid, block_dim, params))?;
            gpu.set_host_tag(encode_mask_tag(dev, block_dim, levels_run, phase));
        }
        in_flight = false;
        let summary = match gpu.run_checkpointed(500_000_000, policy)? {
            RunOutcome::Killed { at } => return Ok(BfsMaskOutcome::Killed { at }),
            RunOutcome::Completed(summary) => summary,
        };
        if phase == PHASE_EXPAND {
            phase = PHASE_COMMIT;
        } else {
            levels_run += 1;
            if gpu.device().read_u32(dev.more) == 0 || levels_run > n {
                break summary.instructions;
            }
            phase = PHASE_EXPAND;
        }
    };
    Ok(BfsMaskOutcome::Completed(BfsRun {
        levels_run,
        frontier_sizes: Vec::new(),
        total_cycles: gpu.now().get(),
        instructions,
    }))
}

/// Parameters of the BFS dynamic-latency experiment (E2/E3): the graph and
/// the launch geometry. The traversal always starts at node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsExperiment {
    /// Graph nodes.
    pub nodes: u32,
    /// Average out-degree.
    pub degree: u32,
    /// Graph seed.
    pub seed: u64,
    /// Threads per CTA.
    pub block_dim: u32,
}

impl BfsExperiment {
    /// Whether these parameters describe a run at all: a graph with at least
    /// one node and one edge per node, launched with at least one thread per
    /// CTA. The one rule every front end (`latency trace`'s flags, `serve`'s
    /// spec parser) applies to outside input before it reaches the graph
    /// builder and the launch, both of which panic on a zero.
    pub fn is_runnable(&self) -> bool {
        self.nodes > 0 && self.degree > 0 && self.block_dim > 0
    }
}

impl Default for BfsExperiment {
    /// The default instrumented run: a 16k-node uniform random graph with
    /// average degree 8 — a working set just over the GF100's aggregate L2,
    /// so the run mixes L2 hits with real DRAM traffic like the paper's
    /// Rodinia BFS input (whose latencies top out near 1800 cycles).
    fn default() -> Self {
        BfsExperiment {
            nodes: 16384,
            degree: 8,
            seed: 20150301, // ISPASS 2015
            block_dim: 128,
        }
    }
}

/// The workload table's BFS entry: uploads `exp`'s graph and starts the
/// traversal — or, on a `resumed` machine, picks it up from the host tag —
/// drives it under `policy`, and checks a completed traversal against the
/// host reference (an instrumented run that computes the wrong BFS would be
/// meaningless).
pub(crate) fn run_experiment(
    gpu: &mut Gpu,
    exp: &BfsExperiment,
    policy: &CheckpointPolicy,
    resumed: bool,
) -> Result<RunOutcome, SimError> {
    let graph = Graph::uniform_random(exp.nodes, exp.degree, exp.seed);
    let (dev, outcome) = if resumed {
        (restored_position(gpu)?.0, resume_bfs_mask(gpu, policy)?)
    } else {
        let dev = upload_graph_mask(gpu, &graph);
        let outcome = run_bfs_mask_checkpointed(gpu, &dev, 0, exp.block_dim, policy)?;
        (dev, outcome)
    };
    Ok(match outcome {
        BfsMaskOutcome::Killed { at } => RunOutcome::Killed { at },
        BfsMaskOutcome::Completed(_) => {
            assert_eq!(
                read_costs(gpu, &dev),
                graph.bfs_levels(0),
                "device BFS diverged from reference"
            );
            RunOutcome::Completed(Box::new(gpu.summary()))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;

    fn small_fermi() -> GpuConfig {
        let mut c = GpuConfig::fermi_gf100();
        c.num_sms = 4; // keep unit tests quick
        c
    }

    #[test]
    fn bfs_kernel_validates() {
        assert!(build_bfs_kernel().validate().is_ok());
    }

    #[test]
    fn grid_graph_levels_match_reference() {
        let graph = Graph::grid(8, 6);
        let mut gpu = Gpu::new(small_fermi());
        let dev = upload_graph(&mut gpu, &graph);
        let run = run_bfs(&mut gpu, &dev, 0, 64).unwrap();
        assert_eq!(read_levels(&gpu, &dev), graph.bfs_levels(0));
        assert!(run.levels_run >= 12, "8x6 grid has eccentricity 12");
        assert!(run.total_cycles > 0);
    }

    #[test]
    fn random_graph_levels_match_reference() {
        let graph = Graph::uniform_random(300, 6, 99);
        let mut gpu = Gpu::new(small_fermi());
        let dev = upload_graph(&mut gpu, &graph);
        run_bfs(&mut gpu, &dev, 5, 128).unwrap();
        assert_eq!(read_levels(&gpu, &dev), graph.bfs_levels(5));
    }

    #[test]
    fn unreachable_nodes_stay_unvisited() {
        let graph = Graph::from_adjacency(&[vec![1], vec![0], vec![0]]);
        let mut gpu = Gpu::new(small_fermi());
        let dev = upload_graph(&mut gpu, &graph);
        run_bfs(&mut gpu, &dev, 0, 32).unwrap();
        assert_eq!(read_levels(&gpu, &dev), vec![0, 1, UNVISITED]);
    }

    #[test]
    fn mask_bfs_matches_reference_on_grid() {
        let graph = Graph::grid(8, 6);
        let mut gpu = Gpu::new(small_fermi());
        let dev = upload_graph_mask(&mut gpu, &graph);
        let run = run_bfs_mask(&mut gpu, &dev, 0, 64).unwrap();
        assert_eq!(read_costs(&gpu, &dev), graph.bfs_levels(0));
        assert!(run.levels_run >= 12);
    }

    #[test]
    fn mask_bfs_matches_reference_on_random_graph() {
        let graph = Graph::uniform_random(300, 6, 99);
        let mut gpu = Gpu::new(small_fermi());
        let dev = upload_graph_mask(&mut gpu, &graph);
        run_bfs_mask(&mut gpu, &dev, 5, 128).unwrap();
        assert_eq!(read_costs(&gpu, &dev), graph.bfs_levels(5));
    }

    #[test]
    fn mask_bfs_handles_unreachable_nodes() {
        let graph = Graph::from_adjacency(&[vec![1], vec![0], vec![0]]);
        let mut gpu = Gpu::new(small_fermi());
        let dev = upload_graph_mask(&mut gpu, &graph);
        run_bfs_mask(&mut gpu, &dev, 0, 32).unwrap();
        assert_eq!(read_costs(&gpu, &dev), vec![0, 1, UNVISITED]);
    }

    #[test]
    fn frontier_sizes_sum_to_reachable_nodes() {
        let graph = Graph::uniform_random(200, 4, 3);
        let mut gpu = Gpu::new(small_fermi());
        let dev = upload_graph(&mut gpu, &graph);
        let run = run_bfs(&mut gpu, &dev, 0, 64).unwrap();
        let reached = graph
            .bfs_levels(0)
            .iter()
            .filter(|&&l| l != UNVISITED)
            .count() as u32;
        // Every reached node (except the source) got exactly one ticket,
        // modulo the benign Rodinia-style duplicate race, which can only
        // over-count.
        let tickets: u32 = run.frontier_sizes.iter().sum();
        assert!(
            tickets >= reached - 1,
            "tickets {tickets} < reached {reached}"
        );
    }
}
