//! Route computation: deadlock-free up\*/down\* routing and per-rank
//! next-hop tables.
//!
//! The paper (§4.3) computes static routes offline "using a deadlock-free
//! routing scheme \[Domke et al., 8\], according to the target FPGA
//! interconnection topology", and uploads the resulting tables to the
//! devices at runtime. We implement **up\*/down\*** routing — the classic
//! deadlock-free oblivious scheme for arbitrary topologies: links are
//! oriented toward a BFS spanning-tree root, and every route consists of
//! zero or more "up" hops followed by zero or more "down" hops. Because no
//! route ever turns down→up, the channel-dependency graph is provably
//! acyclic, which [`crate::deadlock::find_cycle`] verifies per instance.
//!
//! A plain shortest-path scheme ([`Scheme::ShortestPath`]) is also provided;
//! it is *not* deadlock-free in general (e.g. on rings) and exists for
//! comparison and for negative tests of the deadlock checker.

use serde::{Deserialize, Serialize};

use crate::{Endpoint, Topology, TopologyError};

/// Where a rank must send a packet for a given destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NextHop {
    /// The destination is this rank: deliver to the local CKR.
    Local,
    /// Forward out of the given QSFP port.
    Via(usize),
}

/// One directed traversal of a cable, from port `from` into port `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Hop {
    /// Outgoing endpoint (sender side of the cable).
    pub from: Endpoint,
    /// Incoming endpoint (receiver side of the cable).
    pub to: Endpoint,
}

/// The routing table of one rank: `next[dst]` says where packets for `dst`
/// leave this rank. This is the content the paper uploads into the on-chip
/// M20K routing tables of the CKS modules.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankRoutes {
    /// Indexed by destination rank.
    pub next: Vec<NextHop>,
}

/// The routing scheme used to compute a [`RoutingPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheme {
    /// Up*/down* over a BFS spanning tree rooted at rank 0 — deadlock-free.
    UpDown,
    /// Plain BFS shortest paths — minimal hop count but **not** guaranteed
    /// deadlock-free; for analysis/ablation only.
    ShortestPath,
}

/// A complete set of routes for a topology: one next-hop table per rank.
///
/// The tables are the whole plan, exactly what the paper uploads to the
/// devices. The route of a (src, dst) pair is the walk a packet takes
/// through them; [`RoutingPlan::path`] reconstructs it on demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingPlan {
    num_ranks: usize,
    scheme: Scheme,
    per_rank: Vec<RankRoutes>,
}

impl RoutingPlan {
    /// Compute a deadlock-free up*/down* routing plan.
    pub fn compute(topo: &Topology) -> Result<RoutingPlan, TopologyError> {
        Self::compute_with(topo, Scheme::UpDown)
    }

    /// Compute a routing plan with an explicit scheme.
    ///
    /// One BFS per source fills that source's table directly, and for
    /// up*/down* one pass per destination keeps every table walk legal, so
    /// the plan costs O(n·(n+E)) time and O(n²) space.
    pub fn compute_with(topo: &Topology, scheme: Scheme) -> Result<RoutingPlan, TopologyError> {
        let n = topo.num_ranks();
        let levels = bfs_levels(topo);
        let mut per_rank = (0..n)
            .map(|src| {
                let next = match scheme {
                    Scheme::UpDown => updown_bfs(topo, &levels, src),
                    Scheme::ShortestPath => shortest_bfs(topo, src),
                }?;
                Ok(RankRoutes { next })
            })
            .collect::<Result<Vec<_>, TopologyError>>()?;
        if scheme == Scheme::UpDown {
            keep_down_phase(topo, &levels, &mut per_rank);
        }
        Ok(RoutingPlan {
            num_ranks: n,
            scheme,
            per_rank,
        })
    }

    /// Number of ranks covered.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// The scheme used.
    #[inline]
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Next hop at `rank` for packets destined to `dst`.
    #[inline]
    pub fn next_hop(&self, rank: usize, dst: usize) -> NextHop {
        self.per_rank[rank].next[dst]
    }

    /// The per-rank table (what gets uploaded to the device).
    #[inline]
    pub fn rank_routes(&self, rank: usize) -> &RankRoutes {
        &self.per_rank[rank]
    }

    /// The directed path a packet from `src` to `dst` takes through the
    /// tables (empty when `src == dst`).
    ///
    /// # Panics
    ///
    /// If the plan does not route over `topo` (see
    /// [`RoutingPlan::validate_against`]).
    pub fn path(&self, topo: &Topology, src: usize, dst: usize) -> Vec<Hop> {
        self.walk(topo, src, dst)
            .unwrap_or_else(|e| panic!("plan does not route over this topology: {e}"))
    }

    /// Number of network hops from `src` to `dst` under this plan.
    ///
    /// # Panics
    ///
    /// As [`RoutingPlan::path`].
    pub fn hops(&self, topo: &Topology, src: usize, dst: usize) -> usize {
        self.path(topo, src, dst).len()
    }

    /// The longest routed path in the plan (routed diameter).
    ///
    /// # Panics
    ///
    /// As [`RoutingPlan::path`].
    pub fn max_hops(&self, topo: &Topology) -> usize {
        (0..self.num_ranks)
            .flat_map(|s| (0..self.num_ranks).map(move |d| (s, d)))
            .map(|(s, d)| self.hops(topo, s, d))
            .max()
            .unwrap_or(0)
    }

    /// Verify that the tables route every pair over `topo`: every table has
    /// one entry per rank, each walk follows real cables and ends at its
    /// destination within `num_ranks` hops.
    ///
    /// A plan may come from untrusted JSON, so this never panics or hangs:
    /// a port with no cable is [`TopologyError::NoCable`], a walk that
    /// revisits a rank is [`TopologyError::RoutingLoop`].
    pub fn validate_against(&self, topo: &Topology) -> Result<(), TopologyError> {
        let n = topo.num_ranks();
        if self.num_ranks != n || self.per_rank.len() != n {
            return Err(TopologyError::BadSpec(format!(
                "plan covers {} ranks with {} tables, topology has {n}",
                self.num_ranks,
                self.per_rank.len()
            )));
        }
        if let Some(r) = self.per_rank.iter().position(|t| t.next.len() != n) {
            return Err(TopologyError::BadSpec(format!(
                "table of rank {r} has {} entries, expected {n}",
                self.per_rank[r].next.len()
            )));
        }
        for src in 0..n {
            for dst in 0..n {
                if src == dst && self.next_hop(src, dst) != NextHop::Local {
                    return Err(TopologyError::BadSpec(format!(
                        "rank {src} forwards packets addressed to itself"
                    )));
                }
                self.walk(topo, src, dst)?;
            }
        }
        Ok(())
    }

    /// Follow the tables from `src` toward `dst`. Since the tables are
    /// destination-based, a walk that does not arrive within `num_ranks`
    /// hops has revisited a rank and loops forever.
    fn walk(&self, topo: &Topology, src: usize, dst: usize) -> Result<Vec<Hop>, TopologyError> {
        let mut hops = Vec::new();
        let mut at = src;
        while at != dst {
            if hops.len() >= self.num_ranks {
                return Err(TopologyError::RoutingLoop { src, dst });
            }
            let qsfp = match self.next_hop(at, dst) {
                NextHop::Via(q) => q,
                NextHop::Local => {
                    return Err(TopologyError::BadSpec(format!(
                        "route {src}->{dst} delivers at rank {at}"
                    )))
                }
            };
            let to = topo
                .peer(at, qsfp)
                .ok_or(TopologyError::NoCable { rank: at, qsfp })?;
            hops.push(Hop {
                from: Endpoint::new(at, qsfp),
                to,
            });
            at = to.rank;
        }
        Ok(hops)
    }
}

/// BFS levels from rank 0 (the up*/down* root).
fn bfs_levels(topo: &Topology) -> Vec<usize> {
    let n = topo.num_ranks();
    let mut level = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    level[0] = 0;
    queue.push_back(0usize);
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

/// Is the directed traversal `u -> v` an "up" move (toward the root)?
/// Ties on level are broken by rank id so every cable has exactly one up
/// direction.
#[inline]
fn is_up(levels: &[usize], u: usize, v: usize) -> bool {
    levels[v] < levels[u] || (levels[v] == levels[u] && v < u)
}

/// BFS over (rank, phase) states where phase=0 means "still going up" and
/// phase=1 means "now going down"; only up→down transitions are allowed.
/// Returns the table of `src`: the port the shortest legal path to each
/// rank leaves by. Each state inherits the first hop of the state that
/// discovered it.
fn updown_bfs(
    topo: &Topology,
    levels: &[usize],
    src: usize,
) -> Result<Vec<NextHop>, TopologyError> {
    let n = topo.num_ranks();
    // state = rank * 2 + phase
    let mut first = vec![usize::MAX; n * 2];
    let mut dist = vec![usize::MAX; n * 2];
    let start = src * 2;
    dist[start] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(state) = queue.pop_front() {
        let (u, phase) = (state / 2, state % 2);
        for (q, ep) in topo.neighbors(u) {
            let up = is_up(levels, u, ep.rank);
            // In the up phase we may keep going up or turn down;
            // in the down phase we may only continue down.
            let next_phase = if up { 0 } else { 1 };
            if phase == 1 && up {
                continue;
            }
            let next_state = ep.rank * 2 + next_phase;
            if dist[next_state] == usize::MAX {
                dist[next_state] = dist[state] + 1;
                first[next_state] = if state == start { q } else { first[state] };
                queue.push_back(next_state);
            }
        }
    }
    (0..n)
        .map(|dst| {
            if dst == src {
                return Ok(NextHop::Local);
            }
            let (s_up, s_down) = (dst * 2, dst * 2 + 1);
            let best = if dist[s_up] <= dist[s_down] {
                s_up
            } else {
                s_down
            };
            if dist[best] == usize::MAX {
                return Err(TopologyError::NoRoute { src, dst });
            }
            Ok(NextHop::Via(first[best]))
        })
        .collect()
}

/// Make every up*/down* table walk legal.
///
/// A table is indexed by destination only, so a rank cannot tell whether a
/// packet arrived going up or going down. Each source's BFS picks its own
/// shortest legal route; on irregular topologies a rank entered by another
/// rank's down hop may prefer an up hop for the same destination, and the
/// walk turns down→up, which can close a cycle in the channel-dependency
/// graph. Per destination, this visits ranks top-down in the up*/down*
/// order: a rank entered by a down hop keeps its entry if that entry goes
/// down to a rank that can still reach `dst` going down only, and otherwise
/// takes the down hop with the shortest down-only remainder. Down hops lead
/// strictly later in the order, so every rank's entering hops are settled
/// before it is visited. Entries whose walks are already legal — all of them
/// on buses, rings and tori — are left as the BFS chose them.
fn keep_down_phase(topo: &Topology, levels: &[usize], per_rank: &mut [RankRoutes]) {
    let n = topo.num_ranks();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&r| (levels[r], r));
    let mut down_dist = vec![usize::MAX; n];
    let mut entered_down = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for dst in 0..n {
        // down_dist[r] = length of the shortest down-only path r -> dst:
        // BFS from dst against the down direction, i.e. along up hops.
        down_dist.fill(usize::MAX);
        entered_down.fill(false);
        down_dist[dst] = 0;
        queue.push_back(dst);
        while let Some(v) = queue.pop_front() {
            for (_, ep) in topo.neighbors(v) {
                if is_up(levels, v, ep.rank) && down_dist[ep.rank] == usize::MAX {
                    down_dist[ep.rank] = down_dist[v] + 1;
                    queue.push_back(ep.rank);
                }
            }
        }
        for &r in &order {
            let NextHop::Via(q) = per_rank[r].next[dst] else {
                continue;
            };
            let mut to = topo.peer(r, q).expect("BFS routes over cables").rank;
            let goes_down = |to: usize| !is_up(levels, r, to) && down_dist[to] != usize::MAX;
            if entered_down[r] && !goes_down(to) {
                let (q, ep) = topo
                    .neighbors(r)
                    .filter(|&(_, ep)| goes_down(ep.rank))
                    .min_by_key(|&(_, ep)| down_dist[ep.rank])
                    .expect("a rank entered going down has a down-only path");
                per_rank[r].next[dst] = NextHop::Via(q);
                to = ep.rank;
            }
            if !is_up(levels, r, to) {
                entered_down[to] = true;
            }
        }
    }
}

/// Plain BFS shortest paths (not deadlock-free in general); returns the
/// table of `src` as [`updown_bfs`] does.
fn shortest_bfs(topo: &Topology, src: usize) -> Result<Vec<NextHop>, TopologyError> {
    let n = topo.num_ranks();
    let mut first = vec![usize::MAX; n];
    let mut seen = vec![false; n];
    seen[src] = true;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for (q, ep) in topo.neighbors(u) {
            if !seen[ep.rank] {
                seen[ep.rank] = true;
                first[ep.rank] = if u == src { q } else { first[u] };
                queue.push_back(ep.rank);
            }
        }
    }
    (0..n)
        .map(|dst| match (dst == src, seen[dst]) {
            (true, _) => Ok(NextHop::Local),
            (false, true) => Ok(NextHop::Via(first[dst])),
            (false, false) => Err(TopologyError::NoRoute { src, dst }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_routes_are_linear() {
        let topo = Topology::bus(8);
        let plan = RoutingPlan::compute(&topo).unwrap();
        plan.validate_against(&topo).unwrap();
        // Hop counts on a bus are |src - dst|.
        for s in 0..8 {
            for d in 0..8 {
                assert_eq!(plan.hops(&topo, s, d), s.abs_diff(d), "bus {s}->{d}");
            }
        }
        assert_eq!(plan.max_hops(&topo), 7);
        // Direction sanity: 0 -> 7 leaves through port 1 (east).
        assert_eq!(plan.next_hop(0, 7), NextHop::Via(1));
        assert_eq!(plan.next_hop(3, 0), NextHop::Via(0));
        assert_eq!(plan.next_hop(5, 5), NextHop::Local);
    }

    #[test]
    fn torus_routes_valid_and_bounded() {
        let topo = Topology::torus2d(2, 4);
        let plan = RoutingPlan::compute(&topo).unwrap();
        plan.validate_against(&topo).unwrap();
        // Up*/down* on this torus cannot exceed 2x the BFS eccentricity.
        let max = plan.max_hops(&topo);
        assert!(max <= 5, "max hops {max}");
        for s in 0..8 {
            for d in 0..8 {
                if s != d {
                    assert!(plan.hops(&topo, s, d) >= 1);
                }
            }
        }
    }

    #[test]
    fn shortest_scheme_is_minimal() {
        let topo = Topology::ring(6);
        let sp = RoutingPlan::compute_with(&topo, Scheme::ShortestPath).unwrap();
        sp.validate_against(&topo).unwrap();
        for s in 0..6usize {
            for d in 0..6usize {
                let direct = s.abs_diff(d).min(6 - s.abs_diff(d));
                assert_eq!(sp.hops(&topo, s, d), direct);
            }
        }
    }

    #[test]
    fn updown_on_ring_detours_but_routes() {
        // Up*/down* on a ring must avoid the "wrap" turn somewhere; paths
        // may be longer than shortest but must exist and be valid.
        let topo = Topology::ring(6);
        let plan = RoutingPlan::compute(&topo).unwrap();
        plan.validate_against(&topo).unwrap();
        assert!(plan.max_hops(&topo) >= 3);
    }

    #[test]
    fn single_rank_plan() {
        let topo = Topology::bus(1);
        let plan = RoutingPlan::compute(&topo).unwrap();
        assert_eq!(plan.next_hop(0, 0), NextHop::Local);
        assert_eq!(plan.max_hops(&topo), 0);
    }

    #[test]
    fn two_rank_plan() {
        let topo = Topology::bus(2);
        let plan = RoutingPlan::compute(&topo).unwrap();
        assert_eq!(plan.hops(&topo, 0, 1), 1);
        assert_eq!(plan.hops(&topo, 1, 0), 1);
        let path = plan.path(&topo, 0, 1);
        assert_eq!(path[0].from, Endpoint::new(0, 1));
        assert_eq!(path[0].to, Endpoint::new(1, 0));
    }

    /// Validation of plans from outside input (hand-edited `smi-routegen`
    /// JSON) reports typed errors instead of panicking or spinning.
    #[test]
    fn hostile_plans_are_rejected_with_typed_errors() {
        let topo = Topology::bus(3);
        let parse = |tables: &str| -> RoutingPlan {
            let json = format!(r#"{{"num_ranks":3,"scheme":"UpDown","per_rank":[{tables}]}}"#);
            serde_json::from_str(&json).unwrap()
        };
        let good = parse(
            r#"{"next":["Local",{"Via":1},{"Via":1}]},
               {"next":[{"Via":0},"Local",{"Via":1}]},
               {"next":[{"Via":0},{"Via":0},"Local"]}"#,
        );
        assert_eq!(good, RoutingPlan::compute(&topo).unwrap());
        // Rank 1 sends packets for rank 2 back west: 0 -> 1 -> 0 -> ...
        let looping = parse(
            r#"{"next":["Local",{"Via":1},{"Via":1}]},
               {"next":[{"Via":0},"Local",{"Via":0}]},
               {"next":[{"Via":0},{"Via":0},"Local"]}"#,
        );
        assert_eq!(
            looping.validate_against(&topo),
            Err(TopologyError::RoutingLoop { src: 0, dst: 2 })
        );
        // Rank 0 has no west cable, and no port 7 at all.
        for port in [0, 7] {
            let uncabled = parse(&format!(
                r#"{{"next":["Local",{{"Via":{port}}},{{"Via":1}}]}},
                   {{"next":[{{"Via":0}},"Local",{{"Via":1}}]}},
                   {{"next":[{{"Via":0}},{{"Via":0}},"Local"]}}"#
            ));
            assert_eq!(
                uncabled.validate_against(&topo),
                Err(TopologyError::NoCable {
                    rank: 0,
                    qsfp: port
                })
            );
        }
        // Short tables and early delivery are malformed, not panics.
        let short = parse(r#"{"next":["Local"]},{"next":[]},{"next":[]}"#);
        assert!(matches!(
            short.validate_against(&topo),
            Err(TopologyError::BadSpec(_))
        ));
        let early = parse(
            r#"{"next":["Local","Local",{"Via":1}]},
               {"next":[{"Via":0},"Local",{"Via":1}]},
               {"next":[{"Via":0},{"Via":0},"Local"]}"#,
        );
        assert!(matches!(
            early.validate_against(&topo),
            Err(TopologyError::BadSpec(_))
        ));
        // A plan for another rank count is rejected up front.
        let other = RoutingPlan::compute(&Topology::bus(4)).unwrap();
        assert!(matches!(
            other.validate_against(&topo),
            Err(TopologyError::BadSpec(_))
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let topo = Topology::torus2d(2, 2);
        let plan = RoutingPlan::compute(&topo).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: RoutingPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
