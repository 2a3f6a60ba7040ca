//! Equivalence of the next-hop tables against a path-materializing
//! reference.
//!
//! The reference below is the original route generator: it runs the same
//! up\*/down\* and shortest-path BFS, but keeps a parent pointer per state
//! and reconstructs every (src, dst) path. The production generator keeps
//! only each source's first hop. For both schemes, on random and structured
//! topologies, the property tests check that
//!
//! * every table entry equals the first hop of the reference path, and
//! * walking the tables from `src` reproduces the reference path hop for
//!   hop — so the routes packets take are the routes the BFS chose —
//!
//! whenever the reference is self-consistent (its own tables walk its
//! paths), which holds on every bus, ring and torus. Where it is not, the
//! reference's up\*/down\* tables can turn down→up when walked; the plan
//! may differ exactly there, and its walks must stay legal.

use std::collections::VecDeque;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smi_topology::deadlock::find_cycle;
use smi_topology::routing::{Hop, Scheme};
use smi_topology::{Endpoint, NextHop, RankRoutes, RoutingPlan, Topology};

/// BFS levels from rank 0 (the up*/down* root).
fn bfs_levels(topo: &Topology) -> Vec<usize> {
    let mut level = vec![usize::MAX; topo.num_ranks()];
    let mut queue = VecDeque::from([0usize]);
    level[0] = 0;
    while let Some(u) = queue.pop_front() {
        for (_, ep) in topo.neighbors(u) {
            if level[ep.rank] == usize::MAX {
                level[ep.rank] = level[u] + 1;
                queue.push_back(ep.rank);
            }
        }
    }
    level
}

fn is_up(levels: &[usize], u: usize, v: usize) -> bool {
    levels[v] < levels[u] || (levels[v] == levels[u] && v < u)
}

/// Walk parent pointers back from `state` and return the hops in order.
fn unwind(parent: &[Option<(usize, Hop)>], mut state: usize) -> Vec<Hop> {
    let mut hops = Vec::new();
    while let Some((prev, hop)) = parent[state] {
        hops.push(hop);
        state = prev;
    }
    hops.reverse();
    hops
}

/// Reference up*/down*: BFS over (rank, phase) states with parent pointers;
/// `paths[dst]` is the shortest legal path (the up-phase arrival on ties).
fn reference_updown(topo: &Topology, levels: &[usize], src: usize) -> Vec<Vec<Hop>> {
    let n = topo.num_ranks();
    let mut parent: Vec<Option<(usize, Hop)>> = vec![None; n * 2];
    let mut dist = vec![usize::MAX; n * 2];
    let start = src * 2;
    dist[start] = 0;
    let mut queue = VecDeque::from([start]);
    while let Some(state) = queue.pop_front() {
        let (u, phase) = (state / 2, state % 2);
        for (q, ep) in topo.neighbors(u) {
            let up = is_up(levels, u, ep.rank);
            if phase == 1 && up {
                continue;
            }
            let next_state = ep.rank * 2 + usize::from(!up);
            if dist[next_state] == usize::MAX {
                dist[next_state] = dist[state] + 1;
                let hop = Hop {
                    from: Endpoint::new(u, q),
                    to: ep,
                };
                parent[next_state] = Some((state, hop));
                queue.push_back(next_state);
            }
        }
    }
    (0..n)
        .map(|dst| {
            if dst == src {
                return Vec::new();
            }
            let best = if dist[dst * 2] <= dist[dst * 2 + 1] {
                dst * 2
            } else {
                dst * 2 + 1
            };
            assert_ne!(dist[best], usize::MAX, "no route {src}->{dst}");
            unwind(&parent, best)
        })
        .collect()
}

/// Reference shortest paths: plain BFS with parent pointers.
fn reference_shortest(topo: &Topology, src: usize) -> Vec<Vec<Hop>> {
    let n = topo.num_ranks();
    let mut parent: Vec<Option<(usize, Hop)>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[src] = true;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for (q, ep) in topo.neighbors(u) {
            if !seen[ep.rank] {
                seen[ep.rank] = true;
                let hop = Hop {
                    from: Endpoint::new(u, q),
                    to: ep,
                };
                parent[ep.rank] = Some((u, hop));
                queue.push_back(ep.rank);
            }
        }
    }
    (0..n).map(|dst| unwind(&parent, dst)).collect()
}

/// `paths[src][dst]` under the reference generator.
fn reference_paths(topo: &Topology, scheme: Scheme) -> Vec<Vec<Vec<Hop>>> {
    let levels = bfs_levels(topo);
    (0..topo.num_ranks())
        .map(|src| match scheme {
            Scheme::UpDown => reference_updown(topo, &levels, src),
            Scheme::ShortestPath => reference_shortest(topo, src),
        })
        .collect()
}

/// The reference's tables: the first hop of every reference path.
fn reference_tables(paths: &[Vec<Vec<Hop>>]) -> Vec<RankRoutes> {
    paths
        .iter()
        .map(|row| RankRoutes {
            next: row
                .iter()
                .map(|p| {
                    p.first()
                        .map_or(NextHop::Local, |h| NextHop::Via(h.from.qsfp))
                })
                .collect(),
        })
        .collect()
}

/// Walk `tables` from `src` toward `dst`; `None` if the walk does not
/// arrive within `n` hops.
fn walk(topo: &Topology, tables: &[RankRoutes], src: usize, dst: usize) -> Option<Vec<Hop>> {
    let mut hops = Vec::new();
    let mut at = src;
    while at != dst {
        let NextHop::Via(q) = tables[at].next[dst] else {
            return None;
        };
        let to = topo.peer(at, q)?;
        hops.push(Hop {
            from: Endpoint::new(at, q),
            to,
        });
        if hops.len() > tables.len() {
            return None;
        }
        at = to.rank;
    }
    Some(hops)
}

/// Check the plan against the reference. Returns whether the reference was
/// self-consistent, i.e. walking its own tables reproduced every one of its
/// paths; then the plan must equal it bit for bit.
///
/// * Shortest paths: the tables always equal the reference's first hops.
/// * Up*/down*: every table walk is legal (no up hop after a down hop), and
///   an entry may differ from the reference only at a rank whose reference
///   route, entered going down, would turn up.
fn check_against_reference(topo: &Topology, scheme: Scheme) -> Result<bool, TestCaseError> {
    let plan = RoutingPlan::compute_with(topo, scheme).unwrap();
    plan.validate_against(topo).unwrap();
    let levels = bfs_levels(topo);
    let paths = reference_paths(topo, scheme);
    let tables = reference_tables(&paths);
    let n = topo.num_ranks();
    let consistent =
        (0..n).all(|s| (0..n).all(|d| walk(topo, &tables, s, d).as_ref() == Some(&paths[s][d])));
    for (src, row) in paths.iter().enumerate() {
        for (dst, path) in row.iter().enumerate() {
            let (got, want) = (plan.next_hop(src, dst), tables[src].next[dst]);
            let route = plan.path(topo, src, dst);
            if consistent || scheme == Scheme::ShortestPath {
                prop_assert_eq!(got, want, "table {}->{} on {} ranks", src, dst, n);
            }
            if consistent {
                prop_assert_eq!(&route, path, "walk {}->{}", src, dst);
            }
            match scheme {
                Scheme::ShortestPath => {
                    prop_assert_eq!(route.len(), path.len(), "{}->{}", src, dst);
                }
                Scheme::UpDown => {
                    let mut down = false;
                    for hop in &route {
                        let up = is_up(&levels, hop.from.rank, hop.to.rank);
                        prop_assert!(!(down && up), "walk {}->{} turns down->up", src, dst);
                        down |= !up;
                    }
                    if got != want {
                        let down_only = walk(topo, &tables, src, dst).is_some_and(|hops| {
                            hops.iter().all(|h| !is_up(&levels, h.from.rank, h.to.rank))
                        });
                        prop_assert!(!down_only, "entry {}->{} changed needlessly", src, dst);
                    }
                }
            }
        }
    }
    Ok(consistent)
}

fn random_topo(n: usize, extra: usize, seed: u64) -> Topology {
    let mut rng = SmallRng::seed_from_u64(seed);
    Topology::random_connected(n, 4, extra, &mut rng).expect("random topology")
}

fn scheme() -> impl Strategy<Value = Scheme> {
    prop::sample::select(vec![Scheme::UpDown, Scheme::ShortestPath])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random connected topologies, both schemes.
    #[test]
    fn tables_equal_reference_on_random_topologies(
        n in 1usize..32,
        extra in 0usize..10,
        seed in any::<u64>(),
        scheme in scheme(),
    ) {
        check_against_reference(&random_topo(n, extra, seed), scheme)?;
    }

    /// The paper's structured topologies at random sizes, both schemes.
    #[test]
    fn tables_equal_reference_on_structured_topologies(
        kind in 0usize..4,
        a in 1usize..7,
        b in 1usize..7,
        c in 1usize..4,
        scheme in scheme(),
    ) {
        let topo = match kind {
            0 => Topology::bus(a * b),
            1 => Topology::ring((a * b).max(3)),
            2 => Topology::torus2d(a, b),
            _ => Topology::torus3d(a.min(4), b.min(4), c),
        };
        prop_assert!(check_against_reference(&topo, scheme)?, "reference inconsistent");
    }
}

/// The benchmark's largest shapes, checked once at full size: tables and
/// walks equal the reference bit for bit.
#[test]
fn tables_equal_reference_at_benchmark_sizes() {
    for topo in [Topology::bus(256), Topology::torus2d(8, 8)] {
        for scheme in [Scheme::UpDown, Scheme::ShortestPath] {
            assert!(check_against_reference(&topo, scheme).unwrap());
        }
    }
}

/// An irregular topology on which the reference's up*/down* tables, walked
/// as packets walk them, turn down->up and close a channel-dependency cycle,
/// although every reference path on its own is legal. The plan's tables
/// differ there and are deadlock-free.
#[test]
fn reference_tables_deadlock_where_plan_does_not() {
    let topo = random_topo(19, 3, 13557341807437463826);
    let plan = RoutingPlan::compute(&topo).unwrap();
    assert!(find_cycle(&topo, &plan).is_none());
    assert!(!check_against_reference(&topo, Scheme::UpDown).unwrap());

    let tables = reference_tables(&reference_paths(&topo, Scheme::UpDown));
    let json = format!(
        r#"{{"num_ranks":19,"scheme":"UpDown","per_rank":{}}}"#,
        serde_json::to_string(&tables).unwrap()
    );
    let reference: RoutingPlan = serde_json::from_str(&json).unwrap();
    reference.validate_against(&topo).unwrap();
    assert_ne!(reference, plan);
    assert!(find_cycle(&topo, &reference).is_some());
}
