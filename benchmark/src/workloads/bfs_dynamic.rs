//! `bfs-dynamic`: the paper's §III dynamic analysis on the full 15-SM
//! `gf100` in its default configuration (sanitizer on, latency sink on).
//! A round runs the Rodinia-style mask BFS over five graphs — two uniform
//! random and two skewed random ones drawn from the seed, and a 2-D grid —
//! checks every traversal against the host reference, and computes the
//! Figure 1 latency breakdown and Figure 2 exposure analysis from the
//! recorded requests and loads. The graphs are small (512 nodes, an 8 × 16
//! grid) so that a traversal takes 0.15–0.3 s and a pass holds some
//! twenty-five rounds: with half-second traversals and six rounds, the
//! host's slow spells spread ten runs of one commit by 15–25 %. The grid's
//! 22 levels make it the slowest traversal on every seed (as the 128 × 128
//! grid is at the paper's sizes), so the tail latency does not hop between
//! graphs as the seed changes.

use gpu_sim::{Gpu, GpuConfig};
use gpu_snapshot::StableHasher;
use gpu_workloads::bfs::{self, BfsMaskDevice};
use gpu_workloads::Graph;
use latency_core::{ArchPreset, ExposureAnalysis, LatencyBreakdown};

use crate::runner::{Op, Round, SimCounts, Workload};
use crate::spans::Recorder;

const BLOCK_DIM: u32 = 64;
const DEGREE: u32 = 8;

pub struct BfsDynamic {
    seed: u64,
    /// `(random-graph nodes, grid side)`.
    sizes: (u32, u32),
    config: GpuConfig,
    graphs: Vec<Graph>,
    devices: Vec<(Gpu, BfsMaskDevice)>,
}

impl BfsDynamic {
    pub fn new(seed: u64, quick: bool) -> Self {
        BfsDynamic {
            seed,
            sizes: if quick { (128, 4) } else { (512, 8) },
            config: ArchPreset::FermiGf100.config(),
            graphs: Vec::new(),
            devices: Vec::new(),
        }
    }
}

impl Workload for BfsDynamic {
    fn setup_reps(&self) -> usize {
        4
    }

    /// Builds the graphs, one simulator per graph, and uploads.
    fn setup(&mut self, rec: &mut Recorder) {
        let (nodes, side) = self.sizes;
        let second = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        let span = rec.begin("workloads.graph_build");
        self.graphs = vec![
            Graph::uniform_random(nodes, DEGREE, self.seed),
            Graph::uniform_random(nodes, DEGREE, second),
            Graph::skewed_random(nodes, DEGREE, self.seed),
            Graph::skewed_random(nodes, DEGREE, second),
            Graph::grid(side, 2 * side),
        ];
        rec.end(span);
        self.devices = self
            .graphs
            .iter()
            .map(|graph| {
                let span = rec.begin("sim.gpu_new");
                let mut gpu = Gpu::new(self.config.clone());
                rec.end(span);
                let span = rec.begin("workloads.upload");
                let dev = bfs::upload_graph_mask(&mut gpu, graph);
                rec.end(span);
                gpu.set_tracing(true);
                (gpu, dev)
            })
            .collect();
    }

    fn round(&mut self, rec: &mut Recorder) -> Round {
        let mut round = Round::default();
        let mut digest = StableHasher::new();
        let mut counts = SimCounts::default();
        for (graph, (mut gpu, dev)) in self.graphs.iter().zip(self.devices.drain(..)) {
            rec.next_op();
            let op_started = std::time::Instant::now();

            let span = rec.begin("workloads.run_bfs_mask");
            let before = rec.sim_before();
            let armed = crate::alloc::arm();
            let run = bfs::run_bfs_mask(&mut gpu, &dev, 0, BLOCK_DIM);
            drop(armed);
            rec.sim_children(before);
            rec.end(span);

            let span = rec.begin("workloads.verify");
            let right_answer = bfs::read_costs(&gpu, &dev) == graph.bfs_levels(0);
            rec.end(span);

            let (requests, loads) = gpu.take_traces();
            let span = rec.begin("core.breakdown");
            let breakdown = LatencyBreakdown::from_requests(&requests, 48);
            rec.end(span);
            let span = rec.begin("core.exposure");
            let exposure = ExposureAnalysis::from_loads(&loads, 24);
            rec.end(span);

            let summary = gpu.summary();
            Round::hash_summary(&mut digest, &summary);
            counts.add(&summary, &self.config);
            round.ops.push(Op {
                ms: op_started.elapsed().as_secs_f64() * 1e3,
                cycles: summary.cycles,
                instrs: summary.instructions,
                ok: run.is_ok()
                    && right_answer
                    && breakdown.total_requests() > 0
                    && exposure.total_loads() > 0
                    && summary.sanitizer_violations == 0,
                lane: 0,
            });
        }
        round.digest = digest.finish();
        round.counts = counts.into_counts();
        round
    }

    fn machine(&self) -> GpuConfig {
        self.config.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Recorder;

    /// Hash of the graphs a seed generates (quick sizes).
    fn graph_digest(seed: u64) -> u64 {
        let mut w = BfsDynamic::new(seed, true);
        w.setup(&mut Recorder::new(std::time::Instant::now(), 0));
        let mut h = StableHasher::new();
        for graph in &w.graphs {
            for &v in graph.row_offsets().iter().chain(graph.cols()) {
                h.u32(v);
            }
        }
        h.finish()
    }

    #[test]
    fn graphs_follow_the_seed() {
        assert_eq!(graph_digest(11), graph_digest(11));
        assert_ne!(graph_digest(11), graph_digest(12));
    }
}
