//! Machine-topology awareness for the worker pool.
//!
//! The paper's runtime exists because moving work between processors
//! has a cost (§4.1.1's distributed TAPER trades balance against
//! locality explicitly). On a modern multi-socket host the same cost
//! hierarchy shows up as SMT sibling < same NUMA node < remote node,
//! so the pool's work stealing and the dist-TAPER home placement
//! should see it. This module supplies that view:
//!
//! * [`CpuTopology`] — the logical-CPU → core/package/NUMA-node map,
//!   probed from Linux sysfs (`/sys/devices/system/cpu/*/topology`,
//!   `/sys/devices/system/node/node*/cpulist`) with a deterministic
//!   [synthetic](CpuTopology::synthetic) fallback for tests and
//!   non-Linux hosts;
//! * [`WorkerTopo`] — worker → CPU placement (distinct physical cores
//!   first, round-robin across NUMA nodes, SMT siblings last) and a
//!   precomputed per-worker *steal schedule*: every other worker
//!   ordered SMT sibling → same node → remote, with the distance class
//!   attached so the pool can batch remote steals. The schedule is a
//!   static permutation computed once per run, keeping the steal hot
//!   path branch-light;
//! * [`pin_current_thread`] — optional worker→CPU pinning through a
//!   direct `sched_setaffinity` call (the symbol is already linked via
//!   std's libc; no new dependency). Pinning failures are reported,
//!   never fatal: a 1-core host running a synthetic 8-CPU topology
//!   simply leaves most workers unpinned. [`Affinity`] is the mask
//!   itself, read and re-applied by a lent thread that pinned itself
//!   for one run.
//!
//! Everything here is a pure function of the topology description and
//! the worker count, so steal schedules are deterministic and
//! unit-testable on synthetic machines regardless of the host.

use std::borrow::Cow;
use std::fmt;
use std::path::Path;
use std::sync::OnceLock;

/// Where a [`CpuTopology`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySource {
    /// Probed from Linux sysfs.
    Sysfs,
    /// Constructed deterministically ([`CpuTopology::synthetic`] or
    /// the probe fallback).
    Synthetic,
}

/// One logical CPU's place in the machine hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuInfo {
    /// Logical CPU id (the `N` of `cpuN`).
    pub cpu: usize,
    /// Core id, unique only within a package (sysfs semantics).
    pub core: usize,
    /// Physical package (socket) id.
    pub package: usize,
    /// NUMA node id (0 on single-node machines).
    pub node: usize,
}

/// The machine's logical-CPU layout, sorted by CPU id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuTopology {
    /// One entry per logical CPU.
    pub cpus: Vec<CpuInfo>,
    /// Probe provenance.
    pub source: TopologySource,
}

/// Which topology the threaded backend schedules against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyMode {
    /// Probe the host (sysfs on Linux) once per process, falling back
    /// to a flat single-node synthetic layout sized by available
    /// parallelism.
    #[default]
    Auto,
    /// A deterministic synthetic machine — used by tests to exercise
    /// hierarchical stealing and NUMA placement on any host.
    Synthetic {
        /// NUMA node (= package) count.
        nodes: usize,
        /// Physical cores per node.
        cores_per_node: usize,
        /// Hardware threads per core.
        smt: usize,
    },
}

impl TopologyMode {
    /// Resolves the mode to a concrete topology. The host is probed
    /// once per process — the first [`Auto`](TopologyMode::Auto) call
    /// reads sysfs, every later one borrows that result — so a run (and
    /// through it every daemon job) does no filesystem access here. A
    /// machine whose CPUs change under a live process keeps the layout
    /// it started with; [`CpuTopology::probe`] always reads afresh.
    pub fn resolve(&self) -> Cow<'static, CpuTopology> {
        static HOST: OnceLock<CpuTopology> = OnceLock::new();
        match *self {
            TopologyMode::Auto => Cow::Borrowed(HOST.get_or_init(CpuTopology::probe)),
            TopologyMode::Synthetic { nodes, cores_per_node, smt } => {
                Cow::Owned(CpuTopology::synthetic(nodes, cores_per_node, smt))
            }
        }
    }
}

/// How far a steal reaches through the machine hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StealDistance {
    /// Victim shares the thief's physical core (SMT sibling) — the
    /// stolen op's data may still be in a shared L1/L2.
    Sibling,
    /// Victim is on the thief's NUMA node (or package), different
    /// core.
    Node,
    /// Victim is across a NUMA/package boundary.
    Remote,
}

impl StealDistance {
    /// Numeric distance class: 0 sibling, 1 same-node, 2 remote.
    pub fn class(self) -> u64 {
        match self {
            StealDistance::Sibling => 0,
            StealDistance::Node => 1,
            StealDistance::Remote => 2,
        }
    }
}

/// One precomputed steal target: a victim and how far away it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealTarget {
    /// The victim worker id.
    pub victim: usize,
    /// Hierarchy distance from the thief to the victim.
    pub distance: StealDistance,
}

/// A compact, comparable description of a topology — recorded by
/// benchmark runs so baselines from differently shaped machines are
/// never conflated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyFingerprint {
    /// `"sysfs"` or `"synthetic"` (`"none"` for the default value).
    pub source: &'static str,
    /// Distinct NUMA nodes.
    pub nodes: usize,
    /// Distinct packages (sockets).
    pub packages: usize,
    /// Distinct physical cores.
    pub cores: usize,
    /// Logical CPUs.
    pub cpus: usize,
}

impl Default for TopologyFingerprint {
    /// The fingerprint of a run that placed no workers on a machine.
    fn default() -> Self {
        TopologyFingerprint { source: "none", nodes: 0, packages: 0, cores: 0, cpus: 0 }
    }
}

impl fmt::Display for TopologyFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} node(s) × {} core(s), {} cpu(s)",
            self.source, self.nodes, self.cores, self.cpus
        )
    }
}

/// Parses a sysfs cpulist like `"0-3,8,10-11"` into CPU ids.
fn parse_cpulist(text: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for part in text.trim().split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((a, b)) = part.split_once('-') {
            if let (Ok(a), Ok(b)) = (a.trim().parse::<usize>(), b.trim().parse::<usize>()) {
                out.extend(a..=b);
            }
        } else if let Ok(v) = part.parse::<usize>() {
            out.push(v);
        }
    }
    out
}

fn read_usize(path: &Path) -> Option<usize> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

impl CpuTopology {
    /// Probes the host's topology. On Linux this reads sysfs; on other
    /// platforms, or when sysfs is unreadable, it falls back to a flat
    /// synthetic layout with one single-thread core per unit of
    /// available parallelism.
    pub fn probe() -> Self {
        if cfg!(target_os = "linux") {
            if let Some(t) = Self::probe_sysfs(
                Path::new("/sys/devices/system/cpu"),
                Path::new("/sys/devices/system/node"),
            ) {
                return t;
            }
        }
        let n = std::thread::available_parallelism().map(|x| x.get()).unwrap_or(1);
        CpuTopology::synthetic(1, n, 1)
    }

    /// Probes a sysfs-shaped tree rooted at `cpu_root` (entries
    /// `cpuN/topology/{core_id,physical_package_id}`) and `node_root`
    /// (entries `nodeN/cpulist`). Returns `None` when no CPU exposes a
    /// topology directory. Missing per-CPU files default to 0; a
    /// missing or empty node tree puts every CPU on node 0 — the probe
    /// degrades, it does not fail.
    pub fn probe_sysfs(cpu_root: &Path, node_root: &Path) -> Option<Self> {
        let mut cpus: Vec<CpuInfo> = Vec::new();
        let entries = std::fs::read_dir(cpu_root).ok()?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(id) = name.strip_prefix("cpu").and_then(|s| s.parse::<usize>().ok()) else {
                continue;
            };
            let topo = entry.path().join("topology");
            if !topo.is_dir() {
                continue;
            }
            let core = read_usize(&topo.join("core_id")).unwrap_or(0);
            let package = read_usize(&topo.join("physical_package_id")).unwrap_or(0);
            cpus.push(CpuInfo { cpu: id, core, package, node: 0 });
        }
        if cpus.is_empty() {
            return None;
        }
        cpus.sort_by_key(|c| c.cpu);
        if let Ok(nodes) = std::fs::read_dir(node_root) {
            for entry in nodes.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let Some(id) = name.strip_prefix("node").and_then(|s| s.parse::<usize>().ok())
                else {
                    continue;
                };
                let Ok(list) = std::fs::read_to_string(entry.path().join("cpulist")) else {
                    continue;
                };
                for cpu in parse_cpulist(&list) {
                    if let Some(info) = cpus.iter_mut().find(|c| c.cpu == cpu) {
                        info.node = id;
                    }
                }
            }
        }
        Some(CpuTopology { cpus, source: TopologySource::Sysfs })
    }

    /// A deterministic synthetic machine: `nodes` NUMA nodes (each its
    /// own package) × `cores_per_node` physical cores × `smt` threads
    /// per core. CPU ids follow the common Linux enumeration — every
    /// core's first thread before any core's second — so synthetic and
    /// probed layouts exercise the same placement logic.
    pub fn synthetic(nodes: usize, cores_per_node: usize, smt: usize) -> Self {
        let (nodes, cores, smt) = (nodes.max(1), cores_per_node.max(1), smt.max(1));
        let mut cpus = Vec::with_capacity(nodes * cores * smt);
        for t in 0..smt {
            for n in 0..nodes {
                for c in 0..cores {
                    cpus.push(CpuInfo {
                        cpu: t * nodes * cores + n * cores + c,
                        core: c,
                        package: n,
                        node: n,
                    });
                }
            }
        }
        cpus.sort_by_key(|c| c.cpu);
        CpuTopology { cpus, source: TopologySource::Synthetic }
    }

    /// Logical CPU count.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// Whether the topology holds no CPUs (never true for probed or
    /// synthetic layouts; both guarantee at least one).
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty()
    }

    fn distinct<K: Ord>(&self, key: impl Fn(&CpuInfo) -> K) -> usize {
        let mut ks: Vec<K> = self.cpus.iter().map(key).collect();
        ks.sort();
        ks.dedup();
        ks.len()
    }

    /// Distinct NUMA node count.
    pub fn node_count(&self) -> usize {
        self.distinct(|c| c.node)
    }

    /// Distinct package (socket) count.
    pub fn package_count(&self) -> usize {
        self.distinct(|c| c.package)
    }

    /// Distinct physical core count (core ids are per-package).
    pub fn core_count(&self) -> usize {
        self.distinct(|c| (c.package, c.core))
    }

    /// The compact fingerprint benchmarks record per run.
    pub fn fingerprint(&self) -> TopologyFingerprint {
        TopologyFingerprint {
            source: match self.source {
                TopologySource::Sysfs => "sysfs",
                TopologySource::Synthetic => "synthetic",
            },
            nodes: self.node_count(),
            packages: self.package_count(),
            cores: self.core_count(),
            cpus: self.len(),
        }
    }

    /// CPU placement order for workers: distinct physical cores first
    /// (one logical CPU per core, round-robin across NUMA nodes), then
    /// the cores' remaining SMT siblings in the same node-interleaved
    /// order. Worker `w` sits at position `w % cpus` of this order, so
    /// home queues (one per worker) land round-robin per node and SMT
    /// sharing only begins once every physical core is occupied.
    fn placement(&self) -> Vec<usize> {
        // Group CPUs by physical core, each group's threads in CPU-id
        // order; order the groups node-major, then interleave nodes.
        let mut cores: Vec<((usize, usize, usize), Vec<usize>)> = Vec::new();
        for info in &self.cpus {
            let key = (info.node, info.package, info.core);
            match cores.iter_mut().find(|(k, _)| *k == key) {
                Some((_, threads)) => threads.push(info.cpu),
                None => cores.push((key, vec![info.cpu])),
            }
        }
        cores.sort_by_key(|(k, _)| *k);
        // Round-robin cores across nodes: take node 0's first core,
        // node 1's first core, …, then each node's second core, ….
        let node_ids: Vec<usize> = {
            let mut ns: Vec<usize> = cores.iter().map(|((n, _, _), _)| *n).collect();
            ns.dedup();
            ns
        };
        let mut per_node: Vec<Vec<&Vec<usize>>> = node_ids
            .iter()
            .map(|&n| cores.iter().filter(|((cn, _, _), _)| *cn == n).map(|(_, t)| t).collect())
            .collect();
        let mut interleaved: Vec<&Vec<usize>> = Vec::with_capacity(cores.len());
        let mut rank = 0usize;
        while interleaved.len() < cores.len() {
            for node in per_node.iter_mut() {
                if rank < node.len() {
                    interleaved.push(node[rank]);
                }
            }
            rank += 1;
        }
        let max_smt = interleaved.iter().map(|t| t.len()).max().unwrap_or(1);
        let mut order = Vec::with_capacity(self.cpus.len());
        for t in 0..max_smt {
            for threads in &interleaved {
                if let Some(&cpu) = threads.get(t) {
                    order.push(cpu);
                }
            }
        }
        order
    }
}

/// The worker pool's static view of the machine: per-worker CPU/node
/// placement and the precomputed steal schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTopo {
    /// Worker → assigned logical CPU (pin target; wraps when there
    /// are more workers than CPUs).
    pub cpu_of_worker: Vec<usize>,
    /// Worker → NUMA node of its assigned CPU.
    pub node_of_worker: Vec<usize>,
    /// Worker → the other workers in steal order, distance attached.
    steal_plan: Vec<Vec<StealTarget>>,
    fingerprint: TopologyFingerprint,
}

impl WorkerTopo {
    /// Builds the placement and steal schedules for `workers` workers
    /// on `topology`. Pure and deterministic: the same inputs always
    /// produce the same schedules.
    pub fn new(topology: &CpuTopology, workers: usize) -> Self {
        let workers = workers.max(1);
        let placement = topology.placement();
        let info_of = |cpu: usize| -> &CpuInfo {
            topology.cpus.iter().find(|c| c.cpu == cpu).expect("placement yields known cpus")
        };
        let cpu_of_worker: Vec<usize> =
            (0..workers).map(|w| placement[w % placement.len()]).collect();
        let node_of_worker: Vec<usize> =
            cpu_of_worker.iter().map(|&cpu| info_of(cpu).node).collect();
        let distance = |a: usize, b: usize| -> StealDistance {
            let (ia, ib) = (info_of(cpu_of_worker[a]), info_of(cpu_of_worker[b]));
            if ia.package == ib.package && ia.core == ib.core {
                StealDistance::Sibling
            } else if ia.node == ib.node || ia.package == ib.package {
                StealDistance::Node
            } else {
                StealDistance::Remote
            }
        };
        let steal_plan: Vec<Vec<StealTarget>> = (0..workers)
            .map(|w| {
                let mut targets: Vec<StealTarget> = (1..workers)
                    .map(|k| {
                        let victim = (w + k) % workers;
                        StealTarget { victim, distance: distance(w, victim) }
                    })
                    .collect();
                // Stable sort: equal-distance victims keep ring
                // order, so the schedule is a deterministic
                // permutation with nearest victims first.
                targets.sort_by_key(|t| t.distance);
                targets
            })
            .collect();
        WorkerTopo {
            cpu_of_worker,
            node_of_worker,
            steal_plan,
            fingerprint: topology.fingerprint(),
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.cpu_of_worker.len()
    }

    /// Worker `w`'s steal schedule: every other worker exactly once.
    pub fn steal_schedule(&self, w: usize) -> &[StealTarget] {
        &self.steal_plan[w]
    }

    /// The underlying topology's fingerprint.
    pub fn fingerprint(&self) -> TopologyFingerprint {
        self.fingerprint
    }
}

/// Words of an [`Affinity`] mask: 1024 bits, the size of glibc's
/// `cpu_set_t`.
const AFFINITY_WORDS: usize = 1024 / 64;

/// The set of CPUs a thread may run on, bit `c` of the mask for CPU
/// `c`. The libc symbols are declared directly (std already links libc
/// on Linux), so this adds no dependency; on other platforms nothing
/// can be read or applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affinity([u64; AFFINITY_WORDS]);

impl Affinity {
    /// The calling thread's mask (`sched_getaffinity`), or `None` where
    /// it cannot be read.
    pub fn current() -> Option<Affinity> {
        #[cfg(target_os = "linux")]
        {
            extern "C" {
                fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            }
            let mut mask = [0u64; AFFINITY_WORDS];
            // SAFETY: pid 0 is the calling thread; the kernel writes at
            // most `cpusetsize` bytes, which is the size of `mask`.
            let ok = unsafe { sched_getaffinity(0, AFFINITY_WORDS * 8, mask.as_mut_ptr()) == 0 };
            ok.then_some(Affinity(mask))
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// Confines the calling thread to this mask (`sched_setaffinity`),
    /// returning whether the kernel accepted it.
    pub fn apply(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            extern "C" {
                fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
            }
            // SAFETY: pid 0 is the calling thread; the kernel reads
            // `cpusetsize` bytes, which is the size of the mask.
            unsafe { sched_setaffinity(0, AFFINITY_WORDS * 8, self.0.as_ptr()) == 0 }
        }
        #[cfg(not(target_os = "linux"))]
        false
    }
}

/// Pins the calling thread to one logical CPU, returning whether the
/// kernel accepted it; on other platforms than Linux, or for CPU ids
/// past the mask width, it returns `false` and the caller runs
/// unpinned.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= AFFINITY_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; AFFINITY_WORDS];
    mask[cpu / 64] |= 1u64 << (cpu % 64);
    Affinity(mask).apply()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Builds a fixture sysfs tree under a unique temp dir:
    /// `cpus = [(cpu, core, package)]`, `nodes = [(node, cpulist)]`.
    fn fixture(name: &str, cpus: &[(usize, usize, usize)], nodes: &[(usize, &str)]) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("orchestra-topo-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for &(cpu, core, package) in cpus {
            let topo = root.join(format!("cpu/cpu{cpu}/topology"));
            std::fs::create_dir_all(&topo).expect("fixture dir");
            std::fs::write(topo.join("core_id"), format!("{core}\n")).expect("fixture file");
            std::fs::write(topo.join("physical_package_id"), format!("{package}\n"))
                .expect("fixture file");
        }
        for &(node, list) in nodes {
            let dir = root.join(format!("node/node{node}"));
            std::fs::create_dir_all(&dir).expect("fixture dir");
            std::fs::write(dir.join("cpulist"), format!("{list}\n")).expect("fixture file");
        }
        root
    }

    fn probe_fixture(root: &Path) -> CpuTopology {
        CpuTopology::probe_sysfs(&root.join("cpu"), &root.join("node"))
            .expect("fixture probes successfully")
    }

    fn assert_schedules_are_permutations(topo: &WorkerTopo) {
        let n = topo.workers();
        for w in 0..n {
            let mut victims: Vec<usize> = topo.steal_schedule(w).iter().map(|t| t.victim).collect();
            victims.sort_unstable();
            let expected: Vec<usize> = (0..n).filter(|&v| v != w).collect();
            assert_eq!(victims, expected, "worker {w}: schedule not a permutation");
        }
    }

    #[test]
    fn probes_single_core_fixture() {
        let root = fixture("single", &[(0, 0, 0)], &[(0, "0")]);
        let t = probe_fixture(&root);
        assert_eq!(t.len(), 1);
        assert_eq!(t.source, TopologySource::Sysfs);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.core_count(), 1);
        for workers in [1, 2, 4] {
            let wt = WorkerTopo::new(&t, workers);
            assert_schedules_are_permutations(&wt);
            // Everyone shares cpu 0: all steals are sibling-distance.
            for w in 0..workers {
                assert!(wt.steal_schedule(w).iter().all(|s| s.distance == StealDistance::Sibling));
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn probes_smt_pair_fixture() {
        // One physical core, two hardware threads.
        let root = fixture("smt", &[(0, 0, 0), (1, 0, 0)], &[(0, "0-1")]);
        let t = probe_fixture(&root);
        assert_eq!(t.len(), 2);
        assert_eq!(t.core_count(), 1);
        assert_eq!(t.node_count(), 1);
        let wt = WorkerTopo::new(&t, 2);
        assert_schedules_are_permutations(&wt);
        assert_eq!(wt.steal_schedule(0)[0].distance, StealDistance::Sibling);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn probes_two_socket_fixture() {
        // 2 sockets × 2 cores, no SMT; nodes mirror sockets.
        let root = fixture(
            "dual",
            &[(0, 0, 0), (1, 1, 0), (2, 0, 1), (3, 1, 1)],
            &[(0, "0-1"), (1, "2-3")],
        );
        let t = probe_fixture(&root);
        assert_eq!(t.len(), 4);
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.package_count(), 2);
        assert_eq!(t.core_count(), 4);
        let wt = WorkerTopo::new(&t, 4);
        assert_schedules_are_permutations(&wt);
        // Placement round-robins nodes: workers 0,2 on node 0 and
        // workers 1,3 on node 1.
        assert_eq!(wt.node_of_worker, vec![0, 1, 0, 1]);
        // Worker 0 steals its node-mate (worker 2) before the remote
        // workers 1 and 3.
        let sched: Vec<(usize, StealDistance)> =
            wt.steal_schedule(0).iter().map(|s| (s.victim, s.distance)).collect();
        assert_eq!(
            sched,
            vec![(2, StealDistance::Node), (1, StealDistance::Remote), (3, StealDistance::Remote)]
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn probes_asymmetric_fixture_without_node_tree() {
        // 3 CPUs: socket 0 has an SMT pair, socket 1 a single core; no
        // node directory at all — every CPU must land on node 0 and
        // the package boundary still separates Node from Remote? No:
        // same node (0) everywhere, but different packages stay
        // non-sibling.
        let root = fixture("asym", &[(0, 0, 0), (1, 0, 0), (2, 0, 1)], &[]);
        let t = probe_fixture(&root);
        assert_eq!(t.len(), 3);
        assert_eq!(t.node_count(), 1, "missing node tree defaults to node 0");
        assert_eq!(t.package_count(), 2);
        assert_eq!(t.core_count(), 2);
        let wt = WorkerTopo::new(&t, 3);
        assert_schedules_are_permutations(&wt);
        // Distinct cores first: cpu0 (pkg0/core0), cpu2 (pkg1/core0),
        // then cpu0's sibling cpu1.
        assert_eq!(wt.cpu_of_worker, vec![0, 2, 1]);
        // Worker 0 (cpu0) steals its SMT sibling (worker 2 on cpu1)
        // before the same-node worker 1 on the other package.
        assert_eq!(wt.steal_schedule(0)[0].victim, 2);
        assert_eq!(wt.steal_schedule(0)[0].distance, StealDistance::Sibling);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn synthetic_layouts_are_deterministic_permutations() {
        for (nodes, cores, smt) in [(1, 1, 1), (1, 4, 2), (2, 2, 1), (2, 4, 2), (4, 2, 2)] {
            let t = CpuTopology::synthetic(nodes, cores, smt);
            assert_eq!(t.len(), nodes * cores * smt);
            assert_eq!(t.node_count(), nodes);
            assert_eq!(t.core_count(), nodes * cores);
            for workers in [1, 2, 3, nodes * cores * smt, nodes * cores * smt + 3] {
                let a = WorkerTopo::new(&t, workers);
                let b = WorkerTopo::new(&t, workers);
                assert_eq!(a, b, "steal schedules must be deterministic");
                assert_schedules_are_permutations(&a);
                // Distances never decrease along a hierarchical
                // schedule.
                for w in 0..workers {
                    let ds: Vec<u64> =
                        a.steal_schedule(w).iter().map(|s| s.distance.class()).collect();
                    assert!(
                        ds.windows(2).all(|p| p[0] <= p[1]),
                        "worker {w}: schedule {ds:?} not sorted by distance"
                    );
                }
            }
        }
    }

    #[test]
    fn synthetic_placement_round_robins_nodes_and_defers_smt() {
        // 2 nodes × 2 cores × 2 threads = 8 CPUs. First four workers
        // take distinct cores alternating nodes; the next four take
        // the SMT siblings in the same alternation.
        let t = CpuTopology::synthetic(2, 2, 2);
        let wt = WorkerTopo::new(&t, 8);
        assert_eq!(wt.node_of_worker, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        // Workers 0 and 4 share a core (0's first thread + sibling).
        assert_eq!(
            wt.steal_schedule(0)[0],
            StealTarget { victim: 4, distance: StealDistance::Sibling }
        );
        // Sibling < same-node < remote partitions the other 7: the
        // SMT sibling, node 0's two other workers, then node 1's four.
        let classes: Vec<u64> = wt.steal_schedule(0).iter().map(|s| s.distance.class()).collect();
        assert_eq!(classes, vec![0, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn more_workers_than_cpus_wraps_placement() {
        let t = CpuTopology::synthetic(1, 2, 1);
        let wt = WorkerTopo::new(&t, 5);
        assert_eq!(wt.workers(), 5);
        assert_schedules_are_permutations(&wt);
        // Workers 0 and 2 share cpu; stealing between them is
        // sibling-distance.
        assert_eq!(wt.cpu_of_worker[0], wt.cpu_of_worker[2]);
        let to2 =
            wt.steal_schedule(0).iter().find(|s| s.victim == 2).expect("worker 2 in schedule");
        assert_eq!(to2.distance, StealDistance::Sibling);
    }

    #[test]
    fn cpulist_parser_handles_ranges_and_noise() {
        assert_eq!(parse_cpulist("0-3,8,10-11\n"), vec![0, 1, 2, 3, 8, 10, 11]);
        assert_eq!(parse_cpulist(" 4 "), vec![4]);
        assert_eq!(parse_cpulist(""), Vec::<usize>::new());
        assert_eq!(parse_cpulist("2-2"), vec![2]);
    }

    #[test]
    fn probe_always_yields_at_least_one_cpu() {
        let t = CpuTopology::probe();
        assert!(!t.is_empty());
        let f = t.fingerprint();
        assert!(f.cpus >= 1 && f.cores >= 1 && f.nodes >= 1);
    }

    #[test]
    fn auto_mode_probes_the_host_once_per_process() {
        let first = TopologyMode::Auto.resolve();
        let second = TopologyMode::Auto.resolve();
        assert_eq!(*first, CpuTopology::probe());
        // The second call did no I/O: it hands out the very value the
        // first one cached.
        let (Cow::Borrowed(a), Cow::Borrowed(b)) = (first, second) else {
            panic!("Auto must borrow the process-wide topology");
        };
        assert!(std::ptr::eq(a, b));
        // Synthetic machines are built per call, never cached.
        let synthetic = TopologyMode::Synthetic { nodes: 2, cores_per_node: 2, smt: 1 };
        assert!(
            matches!(synthetic.resolve(), Cow::Owned(t) if t == CpuTopology::synthetic(2, 2, 1))
        );
    }

    #[test]
    fn pinning_to_cpu_zero_succeeds_on_linux() {
        // CPU 0 exists on every machine; elsewhere the shim returns
        // false and the pool runs unpinned.
        let ok = pin_current_thread(0);
        assert_eq!(ok, cfg!(target_os = "linux"));
        // An absurd CPU id must fail gracefully, not crash.
        assert!(!pin_current_thread(1 << 20));
    }
}
