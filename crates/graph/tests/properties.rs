//! Property-based tests for the graph substrate.

use bbncg_graph::{
    components, diameter, distance_to_set, eccentricities, generators, is_connected,
    local_vertex_connectivity, menger_paths, two_core_mask, unique_cycle, vertex_connectivity,
    BfsScratch, BitAdjacency, BitBfsScratch, CompactCsr, Csr, Diameter, DistanceMatrix,
    GraphMetrics, NodeId, PriceBudget, SparseSssp,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_connected(n: usize, extra: usize, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = generators::random_connected_edges(n, extra, &mut rng);
    Csr::from_edges(n, &edges)
}

/// A graph for the bounded-traversal property: a random realization
/// (often disconnected), or a deep one — a path, a spider, a perfect
/// binary tree — where an abort fires many levels in.
fn bounded_bfs_graph(kind: usize, size: usize, seed: u64) -> CompactCsr {
    let g = match kind {
        0 => {
            let mut rng = StdRng::seed_from_u64(seed);
            let budgets: Vec<usize> = (0..size).map(|i| (i + seed as usize) % 3).collect();
            generators::random_realization(&budgets, &mut rng)
        }
        1 => generators::path(size),
        2 => generators::spider(size / 3),
        _ => generators::perfect_binary_tree(1 + (size % 6) as u32),
    };
    CompactCsr::from_digraph(&g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Along any edge, BFS distances from a fixed source differ by at
    /// most 1 (the defining property of unweighted shortest paths).
    #[test]
    fn bfs_is_1_lipschitz_on_edges(n in 3usize..40, extra in 0usize..20, seed in 0u64..500) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let csr = random_connected(n, extra, seed);
        let mut bfs = BfsScratch::new(n);
        bfs.run(&csr, NodeId::new(0));
        for u in 0..n {
            let du = bfs.dist(NodeId::new(u)).unwrap() as i64;
            for &w in csr.neighbors(NodeId::new(u)) {
                let dw = bfs.dist(w).unwrap() as i64;
                prop_assert!((du - dw).abs() <= 1);
            }
        }
    }

    /// radius ≤ diameter ≤ 2·radius on connected graphs.
    #[test]
    fn diameter_radius_inequalities(n in 2usize..30, extra in 0usize..12, seed in 0u64..500) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let csr = random_connected(n, extra, seed);
        let ecc = eccentricities(&csr);
        let diam = *ecc.iter().max().unwrap();
        let radius = *ecc.iter().min().unwrap();
        prop_assert!(radius <= diam);
        prop_assert!(diam <= 2 * radius);
        prop_assert_eq!(diameter(&csr), Diameter::Finite(diam));
    }

    /// A tree has an empty 2-core and no unique cycle; adding one extra
    /// edge creates a unicyclic graph whose cycle the extractor finds.
    #[test]
    fn tree_plus_edge_is_unicyclic(n in 3usize..40, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generators::random_tree_edges(n, &mut rng);
        let csr = Csr::from_edges(n, &tree);
        prop_assert!(two_core_mask(&csr).iter().all(|&x| !x));
        prop_assert!(unique_cycle(&csr).is_none());
        // Add one non-tree edge.
        let mut edges = tree.clone();
        let e = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .find(|e| !edges.contains(e));
        if let Some(e) = e {
            edges.push(e);
            let csr = Csr::from_edges(n, &edges);
            let cycle = unique_cycle(&csr).expect("unicyclic");
            prop_assert!(cycle.len() >= 3);
            // Every cycle vertex is at distance 0 from the cycle.
            let d = distance_to_set(&csr, &cycle);
            for &c in &cycle {
                prop_assert_eq!(d[c.index()], 0);
            }
        }
    }

    /// κ(G) ≤ min degree, and the Menger path family has exactly
    /// κ(s, t) members for non-adjacent pairs.
    #[test]
    fn connectivity_bounds_and_menger(n in 4usize..16, extra in 0usize..10, seed in 0u64..300) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let csr = random_connected(n, extra, seed);
        let kappa = vertex_connectivity(&csr);
        let min_deg = (0..n).map(|u| csr.simple_degree(NodeId::new(u))).min().unwrap();
        prop_assert!(kappa <= min_deg);
        // Any non-adjacent pair: local connectivity ≥ global, and paths
        // match the local value.
        'outer: for s in 0..n {
            for t in s + 1..n {
                let (s, t) = (NodeId::new(s), NodeId::new(t));
                if !csr.adjacent(s, t) {
                    let local = local_vertex_connectivity(&csr, s, t);
                    prop_assert!(local >= kappa);
                    let paths = menger_paths(&csr, s, t);
                    prop_assert_eq!(paths.len(), local);
                    break 'outer;
                }
            }
        }
    }

    /// GraphMetrics agrees with the independent distance primitives.
    #[test]
    fn metrics_are_consistent(n in 2usize..25, extra in 0usize..10, seed in 0u64..300) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let csr = random_connected(n, extra, seed);
        let m = GraphMetrics::compute(&csr);
        prop_assert!(m.connected);
        prop_assert_eq!(Diameter::Finite(m.diameter), diameter(&csr));
        let dm = DistanceMatrix::compute(&csr);
        let mut wiener = 0u64;
        for u in 0..n {
            for v in u + 1..n {
                wiener += dm.dist(NodeId::new(u), NodeId::new(v)) as u64;
            }
        }
        prop_assert_eq!(m.wiener_index, wiener);
    }

    /// The engine's session discipline is exact: across a random
    /// sequence of strategy deviations, detaching a player's arcs,
    /// pricing the new strategy as a BFS patch over the detached CSR
    /// and attaching it leaves the same multigraph as a full
    /// `Csr::from_digraph` rebuild, the patched BFS sees the rebuilt
    /// graph's distances, and components agree.
    #[test]
    fn patched_csr_tracks_rebuilds_across_deviations(n in 4usize..24, moves in 1usize..30, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 3).collect();
        let mut g = generators::random_realization(&budgets, &mut rng);
        let mut compact = CompactCsr::from_digraph(&g);
        let mut bfs_patch = BfsScratch::new(n);
        let mut bfs_csr = BfsScratch::new(n);
        for mv in 0..moves {
            // Random player with budget, random fresh strategy.
            let u = NodeId::new(rng.gen_range(0..n));
            let b = g.out_degree(u);
            if b == 0 {
                continue;
            }
            let mut pool: Vec<NodeId> =
                (0..n).map(NodeId::new).filter(|&t| t != u).collect();
            for i in 0..b {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            let mut targets = pool[..b].to_vec();
            targets.sort_unstable();
            let old = g.out(u).to_vec();
            // Detach, price the candidate from a rotating source, attach.
            compact.replace_strategy(u, &old, &[]);
            let src = NodeId::new(mv % n);
            let sp = bfs_patch.run_patched(&compact, src, u, &targets);
            compact.replace_strategy(u, &[], &targets);
            g.set_out(u, targets);
            // Equivalence with the ground-truth rebuild.
            let rebuilt = Csr::from_digraph(&g);
            prop_assert!(compact.same_graph_as(&rebuilt));
            // The patched pricing saw the rebuilt graph.
            let sc = bfs_csr.run(&rebuilt, src);
            prop_assert_eq!(sp, sc);
            for v in (0..n).map(NodeId::new) {
                prop_assert_eq!(bfs_patch.dist(v), bfs_csr.dist(v));
            }
            // Component structure agreement.
            let cp = components(&compact);
            let cc = components(&rebuilt);
            prop_assert_eq!(cp.count, cc.count);
            prop_assert_eq!(cp.sizes, cc.sizes);
        }
        // The live entry count stays within 4 of its start, so a
        // whole-arena re-pack needs more growth than the live data plus
        // the floor, and one relocated row (degree at most half the
        // live entries, 1.5x headroom) never supplies that much: every
        // re-pack is paid for by two or more relocations.
        prop_assert!(2 * compact.compactions() <= compact.relocations());
    }

    /// The single-player detach/attach cycle the engine performs
    /// re-adds every arc into the slot its removal freed, so a
    /// begin/price/commit session round-trips the structure exactly
    /// without relocating a row or re-packing the arena.
    #[test]
    fn detach_attach_roundtrips(n in 3usize..16, seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let g = generators::random_realization(&budgets, &mut rng);
        let truth = Csr::from_digraph(&g);
        let mut compact = CompactCsr::from_digraph(&g);
        for u in (0..n).map(NodeId::new) {
            let strategy = g.out(u).to_vec();
            compact.replace_strategy(u, &strategy, &[]);
            prop_assert_eq!(compact.m(), truth.m() - strategy.len());
            compact.replace_strategy(u, &[], &strategy);
            prop_assert!(compact.same_graph_as(&truth));
        }
        prop_assert_eq!(compact.relocations(), 0);
        prop_assert_eq!(compact.compactions(), 0);
    }

    /// Kernel parity at the BFS level: on random digraphs (connected
    /// and disconnected alike), the word-parallel bitset BFS returns
    /// exactly the queue kernel's statistics — plain, and through
    /// `run_patched` with a random candidate strategy (the shape every
    /// deviation pricing takes).
    #[test]
    fn bitset_bfs_matches_queue_bfs(n in 2usize..80, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random budgets including zeros: the realizations this
        // produces are frequently disconnected.
        let budgets: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 3).collect();
        let g = generators::random_realization(&budgets, &mut rng);
        let compact = CompactCsr::from_digraph(&g);
        let bits = BitAdjacency::from_adjacency(&compact);
        prop_assert!(bits.mirrors(&compact));
        let mut queue = BfsScratch::new(n);
        let mut bitset = BitBfsScratch::new(n);
        for src in (0..n).map(NodeId::new) {
            prop_assert_eq!(queue.run(&compact, src), bitset.run(&bits, src));
        }
        // Patched runs: a random owner plays a random candidate set.
        let owner = NodeId::new(rng.gen_range(0..n));
        let b = 1 + rng.gen_range(0..3.min(n - 1));
        let mut targets: Vec<NodeId> = Vec::new();
        while targets.len() < b {
            let t = NodeId::new(rng.gen_range(0..n));
            if t != owner && !targets.contains(&t) {
                targets.push(t);
            }
        }
        targets.sort_unstable();
        for src in (0..n).map(NodeId::new) {
            prop_assert_eq!(
                queue.run_patched(&compact, src, owner, &targets),
                bitset.run_patched(&bits, src, owner, &targets)
            );
        }
    }

    /// The bit mirror stays exact across a random sequence of in-place
    /// strategy replacements when maintained the way the deviation
    /// engine maintains it (clear a bit only when the multigraph lost
    /// its last occurrence of the edge).
    #[test]
    fn bit_mirror_tracks_patch_sessions(n in 3usize..40, moves in 1usize..25, seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n).map(|i| (i + 1 + seed as usize) % 3).collect();
        let mut g = generators::random_realization(&budgets, &mut rng);
        let mut compact = CompactCsr::from_digraph(&g);
        let mut bits = BitAdjacency::from_adjacency(&compact);
        for _ in 0..moves {
            let u = NodeId::new(rng.gen_range(0..n));
            let b = g.out_degree(u);
            if b == 0 {
                continue;
            }
            let mut pool: Vec<NodeId> = (0..n).map(NodeId::new).filter(|&t| t != u).collect();
            for i in 0..b {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            let mut new = pool[..b].to_vec();
            new.sort_unstable();
            let old = g.out(u).to_vec();
            compact.replace_strategy(u, &old, &new);
            // The engine's maintenance discipline, replicated here.
            for &t in old.iter().filter(|t| !new.contains(t)) {
                if !compact.neighbors(u).contains(&t) {
                    bits.clear_edge(u, t);
                }
            }
            for &t in new.iter().filter(|t| !old.contains(t)) {
                bits.set_edge(u, t);
            }
            g.set_out(u, new);
            prop_assert!(bits.mirrors(&compact));
        }
    }

    /// In-place editing is exact: across a random sequence of strategy
    /// deviations, the compact CSR always describes the same multigraph
    /// as a full `Csr::from_digraph` rebuild, BFS sees identical
    /// distances through it, and components agree.
    #[test]
    fn compact_csr_tracks_rebuilds_across_deviations(n in 4usize..24, moves in 1usize..30, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 3).collect();
        let mut g = generators::random_realization(&budgets, &mut rng);
        let mut compact = CompactCsr::from_digraph(&g);
        let mut bfs_compact = BfsScratch::new(n);
        let mut bfs_csr = BfsScratch::new(n);
        for mv in 0..moves {
            let u = NodeId::new(rng.gen_range(0..n));
            let b = g.out_degree(u);
            if b == 0 {
                continue;
            }
            let mut pool: Vec<NodeId> =
                (0..n).map(NodeId::new).filter(|&t| t != u).collect();
            for i in 0..b {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            let mut targets = pool[..b].to_vec();
            targets.sort_unstable();
            let old = g.out(u).to_vec();
            compact.replace_strategy(u, &old, &targets);
            g.set_out(u, targets);
            let rebuilt = Csr::from_digraph(&g);
            prop_assert!(compact.same_graph_as(&rebuilt));
            let src = NodeId::new(mv % n);
            let sp = bfs_compact.run(&compact, src);
            let sc = bfs_csr.run(&rebuilt, src);
            prop_assert_eq!(sp, sc);
            for v in (0..n).map(NodeId::new) {
                prop_assert_eq!(bfs_compact.dist(v), bfs_csr.dist(v));
            }
            let cp = components(&compact);
            let cc = components(&rebuilt);
            prop_assert_eq!(cp.count, cc.count);
            prop_assert_eq!(cp.sizes, cc.sizes);
        }
    }

    /// Raw edge edits are exact at any point of the arena's life:
    /// random insertions (braces included) and deletions, long enough
    /// for rows to relocate and the arena to compact between the two
    /// endpoint relocations of one `add_edge`, always leave the same
    /// multigraph as a plain edge list.
    #[test]
    fn compact_csr_edit_sequences_match_edge_list(n in 2usize..32, steps in 1usize..400, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 2).collect();
        let g = generators::random_realization(&budgets, &mut rng);
        let mut compact = CompactCsr::from_digraph(&g);
        let mut edges: Vec<(usize, usize)> =
            g.arcs().map(|(u, v)| (u.index(), v.index())).collect();
        for _ in 0..steps {
            if !edges.is_empty() && rng.gen_bool(0.4) {
                let (u, v) = edges.swap_remove(rng.gen_range(0..edges.len()));
                compact.remove_edge(NodeId::new(u), NodeId::new(v));
            } else {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u == v {
                    continue;
                }
                compact.add_edge(NodeId::new(u), NodeId::new(v));
                edges.push((u, v));
            }
            prop_assert_eq!(compact.m(), edges.len());
            prop_assert!(compact.same_graph_as(&Csr::from_edges(n, &edges)));
        }
    }

    /// Incremental repair parity: on random (often disconnected)
    /// session graphs, `SparseSssp::price` returns exactly the stats of
    /// a full patched BFS for every candidate shape the engine can
    /// produce — including duplicate/self targets and cross-component
    /// links — and the base profile survives every rollback.
    #[test]
    fn sssp_repair_matches_patched_bfs(n in 3usize..60, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 3).collect();
        let g = generators::random_realization(&budgets, &mut rng);
        let compact = CompactCsr::from_digraph(&g);
        let mut bfs = BfsScratch::new(n);
        let mut sssp = SparseSssp::new(n);
        for src in (0..n).map(NodeId::new) {
            prop_assert_eq!(sssp.rebase(&compact, src), bfs.run(&compact, src));
            for _ in 0..4 {
                let b = 1 + rng.gen_range(0..3.min(n));
                // Unfiltered draws: duplicates and src itself allowed.
                let targets: Vec<NodeId> =
                    (0..b).map(|_| NodeId::new(rng.gen_range(0..n))).collect();
                prop_assert_eq!(
                    sssp.price(&compact, src, &targets),
                    bfs.run_patched(&compact, src, src, &targets)
                );
            }
            // Base unchanged after repeated price/rollback cycles.
            prop_assert_eq!(sssp.base_stats(), bfs.run(&compact, src));
        }
    }

    /// Batched base repair is exact: across chained rounds of random
    /// presence edits (deletions + insertions, disconnections included),
    /// `repair_batch` leaves the retained profile identical to a fresh
    /// rebase on the edited graph — aggregates, every distance, the full
    /// histogram — and pricing resumes correctly on the repaired base.
    #[test]
    fn repair_batch_matches_fresh_rebase(n in 3usize..32, m in 2usize..40, rounds in 1usize..6, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(usize, usize)> = (0..m)
            .filter_map(|_| {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                (u != v).then(|| (u.min(v), u.max(v)))
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let src = NodeId::new(rng.gen_range(0..n));
        let mut sssp = SparseSssp::new(n);
        let mut bfs = BfsScratch::new(n);
        sssp.rebase(&Csr::from_edges(n, &edges), src);
        for _ in 0..rounds {
            // Random presence edits: up to 2 deletions, up to 2 inserts.
            let mut removed = Vec::new();
            for _ in 0..rng.gen_range(0..3usize) {
                if edges.is_empty() {
                    break;
                }
                let i = rng.gen_range(0..edges.len());
                let (a, b) = edges.swap_remove(i);
                removed.push((NodeId::new(a), NodeId::new(b)));
            }
            let mut inserted = Vec::new();
            for _ in 0..rng.gen_range(0..3usize) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                let e = (u.min(v), u.max(v));
                if u != v && !edges.contains(&e) {
                    edges.push(e);
                    inserted.push((NodeId::new(e.0), NodeId::new(e.1)));
                }
            }
            let after = Csr::from_edges(n, &edges);
            match sssp.repair_batch(&after, src, &removed, &inserted, n) {
                bbncg_graph::RepairOutcome::Repaired(_) => {
                    let mut fresh = SparseSssp::new(n);
                    let want = fresh.rebase(&after, src);
                    prop_assert_eq!(sssp.base_stats(), want);
                    for u in (0..n).map(NodeId::new) {
                        prop_assert_eq!(sssp.base_dist(u), fresh.base_dist(u));
                    }
                    prop_assert_eq!(sssp.hist(), fresh.hist());
                    // Pricing on the repaired base is exact.
                    let t = NodeId::new(rng.gen_range(0..n));
                    prop_assert_eq!(
                        sssp.price(&after, src, &[t]),
                        bfs.run_patched(&after, src, src, &[t])
                    );
                }
                bbncg_graph::RepairOutcome::TooDamaged => {
                    // Bail-out left the scratch stale; fall back.
                    sssp.rebase(&after, src);
                }
            }
        }
    }

    /// The level rule of the queue and bitset kernels is a sound and
    /// tight prune. Against SUM and MAX budgets one under, at and one
    /// over the true value: a traversal that completes returns exactly
    /// the unbounded stats, an abort happens only when those stats
    /// meet the budget, a budget over the true value never aborts, and
    /// one at or under it aborts by the last level at the latest
    /// (once the candidate reaches past the source's neighbours).
    #[test]
    fn bounded_bfs_aborts_are_sound_and_tight(
        kind in 0usize..4,
        size in 3usize..60,
        seed in 0u64..500,
    ) {
        let compact = bounded_bfs_graph(kind, size, seed);
        let n = compact.n();
        let bits = BitAdjacency::from_adjacency(&compact);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B);
        let mut bfs = BfsScratch::new(n);
        let mut bounded = BfsScratch::new(n);
        let mut bitbfs = BitBfsScratch::new(n);
        for _ in 0..4 {
            let src = NodeId::new(rng.gen_range(0..n));
            let k = rng.gen_range(0..3usize);
            let targets: Vec<NodeId> = (0..k).map(|_| NodeId::new(rng.gen_range(0..n))).collect();
            let want = bfs.run_patched(&compact, src, src, &targets);
            let mut budgets = Vec::new();
            for delta in [-1i64, 0, 1] {
                budgets.push(PriceBudget {
                    sum: want.sum_dist.saturating_add_signed(delta),
                    max: u32::MAX,
                    reachable: want.visited,
                    need_max: false,
                });
                budgets.push(PriceBudget {
                    sum: u64::MAX,
                    max: (want.max_dist as i64 + delta).max(0) as u32,
                    reachable: want.visited,
                    need_max: true,
                });
            }
            for budget in &budgets {
                let met = want.sum_dist >= budget.sum || want.max_dist >= budget.max;
                let must_abort = if budget.sum != u64::MAX {
                    met && want.max_dist >= 1
                } else {
                    met && want.max_dist >= 2
                };
                let got = [
                    bounded.run_patched_bounded(&compact, src, src, &targets, budget),
                    bitbfs.run_patched_bounded(&bits, src, src, &targets, budget),
                ];
                for (kernel, got) in ["queue", "bitset"].into_iter().zip(got) {
                    match got {
                        Some(st) => {
                            prop_assert!(st == want, "{} completed with {:?}, not {:?}", kernel, st, want);
                            prop_assert!(!must_abort, "{} missed an abort: {:?} vs {:?}", kernel, budget, want);
                        }
                        None => prop_assert!(met, "{} aborted unsoundly: {:?} vs {:?}", kernel, budget, want),
                    }
                }
            }
        }
    }

    /// Bounded pricing is a sound prune: a `None` abort certifies the
    /// true cost aggregate meets the budget, and a budget one past the
    /// true value always completes with exactly the unbounded stats.
    #[test]
    fn bounded_pricing_aborts_are_sound(n in 3usize..40, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 3).collect();
        let g = generators::random_realization(&budgets, &mut rng);
        let compact = CompactCsr::from_digraph(&g);
        let mut bfs = BfsScratch::new(n);
        let mut sssp = SparseSssp::new(n);
        let src = NodeId::new(rng.gen_range(0..n));
        sssp.rebase(&compact, src);
        for _ in 0..4 {
            let b = 1 + rng.gen_range(0..3.min(n));
            let targets: Vec<NodeId> =
                (0..b).map(|_| NodeId::new(rng.gen_range(0..n))).collect();
            let want = bfs.run_patched(&compact, src, src, &targets);
            // SUM-style budget (max unchecked, returned max invalid).
            for slack in [0u64, 1] {
                let budget = PriceBudget {
                    sum: want.sum_dist + slack,
                    max: u32::MAX,
                    reachable: want.visited,
                    need_max: false,
                };
                match sssp.price_bounded(&compact, src, &targets, &budget) {
                    Some(st) => {
                        prop_assert_eq!(st.sum_dist, want.sum_dist);
                        prop_assert_eq!(st.visited, want.visited);
                    }
                    None => prop_assert!(want.sum_dist >= budget.sum),
                }
            }
            // One past the true sum must always complete.
            let budget = PriceBudget {
                sum: want.sum_dist + 1,
                max: u32::MAX,
                reachable: want.visited,
                need_max: false,
            };
            let st = sssp.price_bounded(&compact, src, &targets, &budget)
                .expect("budget above true cost cannot abort");
            prop_assert_eq!(st.sum_dist, want.sum_dist);
            // MAX-style budget: abort only certifies max ≥ budget.
            for slack in [0u32, 1] {
                let budget = PriceBudget {
                    sum: u64::MAX,
                    max: want.max_dist + slack,
                    reachable: want.visited,
                    need_max: true,
                };
                match sssp.price_bounded(&compact, src, &targets, &budget) {
                    Some(st) => prop_assert_eq!(st, want),
                    None => prop_assert!(want.max_dist >= budget.max),
                }
            }
            // Base survives every bounded rollback.
            prop_assert_eq!(sssp.base_stats(), bfs.run(&compact, src));
        }
    }

    /// Overshoot-ball propagation is sound end to end: when a
    /// single-target pricing crosses its SUM budget, the returned
    /// bound `lb` and every reported `(v, d)` certify
    /// `sum([v]) ≥ lb − reachable·(d − 1)` — the exact inequality the
    /// deviation layer uses to skip candidate `[v]` without a BFS.
    #[test]
    fn overshoot_ball_floors_are_sound(n in 3usize..40, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 3).collect();
        let g = generators::random_realization(&budgets, &mut rng);
        let compact = CompactCsr::from_digraph(&g);
        let mut bfs = BfsScratch::new(n);
        let mut sssp = SparseSssp::new(n);
        let src = NodeId::new(rng.gen_range(0..n));
        sssp.rebase(&compact, src);
        let mut ball = Vec::new();
        for _ in 0..4 {
            let t = NodeId::new(rng.gen_range(0..n));
            let targets = [t];
            let want = bfs.run_patched(&compact, src, src, &targets);
            // Budgets straddling the true sum, with varied overshoot.
            for (delta, overshoot) in
                [(-3i64, 1u64), (-1, 2), (0, 3), (0, 0), (2, 4)]
            {
                let budget = PriceBudget {
                    sum: want.sum_dist.saturating_add_signed(delta),
                    max: u32::MAX,
                    reachable: want.visited,
                    need_max: false,
                };
                ball.clear();
                match sssp.price_bounded_ball(
                    &compact, src, &targets, &budget, overshoot, &mut ball,
                ) {
                    Ok(st) => {
                        prop_assert_eq!(st.sum_dist, want.sum_dist);
                        prop_assert_eq!(st.visited, want.visited);
                        prop_assert!(ball.is_empty());
                    }
                    Err(lb) => {
                        // The bound itself is sound for this candidate.
                        prop_assert!(want.sum_dist >= lb);
                        prop_assert!(lb >= budget.sum);
                        for &(v, d) in &ball {
                            prop_assert!(d >= 1);
                            // Only in-radius vertices are reported.
                            let r = (d as u64 - 1) * want.visited as u64;
                            prop_assert!(r <= lb - budget.sum);
                            // The propagated floor holds against a
                            // fresh exact pricing of [v].
                            let vw = bfs.run_patched(&compact, src, src, &[v]);
                            prop_assert_eq!(vw.visited, want.visited);
                            prop_assert!(vw.sum_dist >= lb.saturating_sub(r));
                        }
                    }
                }
                // Base survives every rollback.
                prop_assert_eq!(sssp.base_stats(), bfs.run(&compact, src));
            }
        }
    }

    /// Component labels partition the vertex set and component count
    /// matches is_connected.
    #[test]
    fn components_partition(n in 1usize..30, m in 0usize..20, seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random (possibly disconnected) graph: m random edges.
        let mut edges = Vec::new();
        for _ in 0..m {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                edges.push((u.min(v), u.max(v)));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let csr = Csr::from_edges(n, &edges);
        let comps = components(&csr);
        prop_assert_eq!(comps.sizes.iter().sum::<usize>(), n);
        prop_assert_eq!(comps.count == 1, is_connected(&csr));
        for (u, v) in csr.simple_edges() {
            prop_assert!(comps.same(u, v));
        }
    }
}
