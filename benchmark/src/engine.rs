//! `engine_replay`: the exploration engine under `TypeLts`
//! (`lts::explore_indexed_guided`), driven by a near-free successor function
//! so that the engine's own layers — seen-set, frontier, spill, renumbering
//! and `Lts` assembly — do almost all the work.
//!
//! The graph is a product of cycles, the shape of the ping-pong and ring
//! products: a state is one position per cycle, packed in mixed radix into a
//! `u32`, and every state has one successor per cycle. Its counts are known
//! without exploring it: `Π Lᵢ` states and `k · Π Lᵢ` transitions.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use lts::{explore_indexed_guided, ExploreConfig, IndexedState, Lts};
use wire::Json;

use crate::stats::Rng;
use crate::sys;

/// A state named by its dense id — its own [`IndexedState`] id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Id(pub u32);

impl IndexedState for Id {
    fn index_id(&self) -> u32 {
        self.0
    }
    fn from_index_id(id: u32) -> Id {
        Id(id)
    }
}

/// Cycle lengths of the product: 15 · 4⁷ = 245,760 states, nine
/// transitions each. The seed permutes them and picks the initial state, so
/// the frontier's shape changes with the seed while the counts do not.
const CYCLES: [u32; 9] = [3, 4, 4, 4, 4, 4, 4, 4, 5];

/// The exploration memory budget of the spilling leg: small enough that the
/// frontier spills from the first levels on.
pub const SPILL_BUDGET: usize = 64 * 1024;

/// A seeded product of cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    lengths: Vec<u32>,
    strides: Vec<u32>,
    initial: u32,
}

impl Graph {
    pub fn seeded(seed: u64) -> Graph {
        let mut rng = Rng::new(seed);
        let mut lengths = CYCLES.to_vec();
        rng.shuffle(&mut lengths);
        let mut strides = Vec::with_capacity(lengths.len());
        let mut stride = 1u32;
        for &len in &lengths {
            strides.push(stride);
            stride *= len;
        }
        let initial = rng.below(stride as usize) as u32;
        Graph {
            lengths,
            strides,
            initial,
        }
    }

    pub fn states(&self) -> usize {
        self.lengths.iter().map(|&l| l as usize).product()
    }

    pub fn transitions(&self) -> usize {
        self.lengths.len() * self.states()
    }

    pub fn initial(&self) -> Id {
        Id(self.initial)
    }

    /// One step along each cycle, labelled by the cycle's index.
    pub fn successors(&self, state: &Id) -> Vec<(u8, Id)> {
        self.lengths
            .iter()
            .zip(&self.strides)
            .enumerate()
            .map(|(i, (&len, &stride))| {
                let digit = (state.0 / stride) % len;
                let next = state.0 - digit * stride + ((digit + 1) % len) * stride;
                (i as u8, Id(next))
            })
            .collect()
    }
}

/// The three legs of one pass.
pub const LEGS: [&str; 3] = ["serial", "parallel", "spill"];

fn leg_config(leg: &str, max_states: usize, work_dir: &std::path::Path) -> ExploreConfig {
    let mut config = ExploreConfig::new(if leg == "serial" { 1 } else { sys::nproc() }, max_states);
    if leg == "spill" {
        config.memory_budget = Some(SPILL_BUDGET);
        config.spill_dir = Some(work_dir.to_path_buf());
    }
    config
}

/// Replays a recorded LTS through the engine with a table successor
/// function (used by the `fig9_cold` ledger to price the engine's share of a
/// real verification). Returns the replay's state and transition counts.
pub fn replay<S, L>(lts: &Lts<S, L>, parallelism: usize) -> (usize, usize)
where
    S: Clone + Eq + std::hash::Hash,
    L: Clone,
{
    let table: Vec<Vec<(u32, Id)>> = (0..lts.num_states())
        .map(|i| {
            lts.transitions_from(i)
                .iter()
                .enumerate()
                .map(|(k, (_, to))| (k as u32, Id(*to as u32)))
                .collect()
        })
        .collect();
    let config = ExploreConfig::new(parallelism, lts.num_states() + 1);
    let explored = explore_indexed_guided(
        Id(lts.initial() as u32),
        |s: &Id| table[s.0 as usize].clone(),
        &config,
        |_: &Id, _: &[(u32, usize)]| false,
        |_: &Id| 0,
    );
    (explored.lts.num_states(), explored.lts.num_transitions())
}

/// Child process: explores the seeded graph once on one leg and prints the
/// leg's record.
pub fn leg_child(seed: u64, leg: &str, work_dir: &std::path::Path) -> Json {
    let graph = Graph::seeded(seed);
    let config = leg_config(leg, graph.states() + 1, work_dir);
    let ready = sys::unix_ns();
    let cpu = sys::cpu_secs();
    let start = Instant::now();
    let explored = explore_indexed_guided(
        graph.initial(),
        |s: &Id| graph.successors(s),
        &config,
        |_: &Id, _: &[(u8, usize)]| false,
        |_: &Id| 0,
    );
    let secs = start.elapsed().as_secs_f64();
    let cpu_secs = sys::cpu_secs() - cpu;
    let states = explored.lts.num_states();
    let transitions = explored.lts.num_transitions();
    let expected = (graph.states(), graph.transitions());
    let correct = (states, transitions) == expected && !explored.lts.is_truncated();
    if !correct {
        eprintln!(
            "engine_replay {leg}: explored {states} states / {transitions} transitions, \
             expected {} / {}",
            expected.0, expected.1
        );
    }
    let stats = explored.stats;
    drop(explored);
    Json::obj([
        ("leg", Json::str(leg)),
        ("ready_unix_ns", Json::Num(ready as f64)),
        ("secs", Json::Num(secs)),
        ("cpu_secs", Json::Num(cpu_secs)),
        ("states", Json::Num(states as f64)),
        ("transitions", Json::Num(transitions as f64)),
        ("correct", Json::Bool(correct)),
        ("vm_hwm_bytes", Json::Num(sys::vm_hwm_bytes() as f64)),
        (
            "resident_peak_bytes",
            Json::Num(stats.resident_peak_bytes as f64),
        ),
        ("spill_segments", Json::Num(stats.spill_segments as f64)),
        ("spill_bytes", Json::Num(stats.spill_bytes as f64)),
        ("spill_reloads", Json::Num(stats.spill_reloads as f64)),
    ])
}

/// A plain breadth-first search of the graph on the standard library alone:
/// a `HashMap` from state to number, a `VecDeque` frontier and adjacency
/// lists. Returns the state and transition counts.
fn plain_bfs(graph: &Graph) -> (usize, usize) {
    let mut ids: HashMap<u32, u32> = HashMap::new();
    let mut queue = VecDeque::new();
    let mut edges: Vec<Vec<(u8, u32)>> = Vec::new();
    ids.insert(graph.initial().0, 0);
    queue.push_back(graph.initial());
    while let Some(s) = queue.pop_front() {
        let mut out = Vec::new();
        for (label, t) in graph.successors(&s) {
            let next = ids.len() as u32;
            let id = *ids.entry(t.0).or_insert_with(|| {
                queue.push_back(t);
                next
            });
            out.push((label, id));
        }
        edges.push(out);
    }
    (ids.len(), edges.iter().map(Vec::len).sum())
}

/// Child process: the host reference. `nproc` threads each run
/// [`plain_bfs`] over the graph of seed 0 at once. No repository code runs,
/// so the states it explores per CPU-second track only how fast the host
/// runs this kind of work at the moment.
pub fn reference_child() -> Json {
    let graph = Graph::seeded(0);
    let cpu = sys::cpu_secs();
    let counts: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sys::nproc())
            .map(|_| scope.spawn(|| plain_bfs(&graph)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference search thread"))
            .collect()
    });
    let cpu_secs = sys::cpu_secs() - cpu;
    let correct = counts
        .iter()
        .all(|&c| c == (graph.states(), graph.transitions()));
    let states: usize = counts.iter().map(|c| c.0).sum();
    Json::obj([
        ("states_per_cpu_s", Json::Num(states as f64 / cpu_secs)),
        ("correct", Json::Bool(correct)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_graph() {
        assert_eq!(Graph::seeded(3), Graph::seeded(3));
        assert_ne!(Graph::seeded(3), Graph::seeded(4));
        assert_eq!(Graph::seeded(3).states(), 245_760);
        assert_eq!(Graph::seeded(4).transitions(), 2_211_840);
    }

    #[test]
    fn successors_step_one_cycle_each() {
        let graph = Graph::seeded(1);
        let s = graph.initial();
        let succ = graph.successors(&s);
        assert_eq!(succ.len(), CYCLES.len());
        for (_, t) in &succ {
            assert_ne!(*t, s);
            assert!((t.0 as usize) < graph.states());
        }
    }

    #[test]
    fn small_products_match_their_analytic_counts() {
        let graph = Graph {
            lengths: vec![3, 4, 5],
            strides: vec![1, 3, 12],
            initial: 7,
        };
        let config = ExploreConfig::new(2, 1000);
        let explored = explore_indexed_guided(
            graph.initial(),
            |s: &Id| graph.successors(s),
            &config,
            |_: &Id, _: &[(u8, usize)]| false,
            |_: &Id| 0,
        );
        assert_eq!(explored.lts.num_states(), 60);
        assert_eq!(explored.lts.num_transitions(), 180);
        assert_eq!(replay(&explored.lts, 1), (60, 180));
        assert_eq!(plain_bfs(&graph), (60, 180));
    }
}
