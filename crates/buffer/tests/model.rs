//! Model-based testing of the buffer manager: random document shapes,
//! random role assignments, random signOff orders — checked against the
//! declarative lifetime semantics of the paper:
//!
//! * a node is live exactly while its subtree carries roles or pins (or
//!   is covered by an ancestor aggregate), or its closing tag is pending;
//! * after all roles are signed off, only the virtual root survives;
//! * buffer footprint never increases across a signOff;
//! * role accounting balances exactly.

use gcx_buffer::{BufNodeId, BufferTree};
use gcx_projection::Role;
use gcx_xml::TagInterner;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One randomly-built buffered document: nodes in document order with
/// their parents and assigned roles.
struct Workload {
    /// (parent index in `nodes` or None for root-child, roles)
    nodes: Vec<(Option<usize>, Vec<Role>)>,
    role_count: usize,
}

fn random_workload(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let role_count = rng.random_range(1..6usize);
    let n = rng.random_range(1..25usize);
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        // Parent must precede in document order; sometimes attach to the
        // most recent node for depth, sometimes anywhere for breadth.
        let parent = if i == 0 {
            None
        } else if rng.random_bool(0.6) {
            Some(i - 1)
        } else {
            Some(rng.random_range(0..i))
        };
        let mut roles = Vec::new();
        for _ in 0..rng.random_range(0..3usize) {
            roles.push(Role(rng.random_range(0..role_count) as u32));
        }
        nodes.push((parent, roles));
    }
    Workload { nodes, role_count }
}

/// Builds the workload into a buffer (depth-first order is simulated by
/// finishing nodes once all their children exist — here: after the build,
/// in reverse document order, which respects nesting).
fn build(w: &Workload, b: &mut BufferTree, tags: &mut TagInterner) -> Vec<BufNodeId> {
    let tag = tags.intern("x");
    let mut ids: Vec<BufNodeId> = Vec::with_capacity(w.nodes.len());
    for (parent, roles) in &w.nodes {
        let p = parent.map(|i| ids[i]).unwrap_or(BufferTree::ROOT);
        let id = b.open_element(p, tag).unwrap();
        for &r in roles {
            b.add_role(id, r);
        }
        ids.push(id);
    }
    // Finish in reverse creation order (children before parents — valid
    // because parents always precede children in `nodes`). Nodes purged at
    // close time (role-free subtrees) are skipped naturally: `finish`
    // handles them, but their ancestors with roles survive.
    for &id in ids.iter().rev() {
        if b.is_alive(id) {
            b.finish(id);
        }
    }
    b.finish(BufferTree::ROOT);
    ids
}

fn check_case(seed: u64) {
    let w = random_workload(seed);
    let mut tags = TagInterner::new();
    let mut b = BufferTree::new(w.role_count, &[]);
    let ids = build(&w, &mut b, &mut tags);

    // Collect surviving role instances: (node index, role), shuffled.
    let mut pending: Vec<(usize, Role)> = Vec::new();
    for (i, (_, roles)) in w.nodes.iter().enumerate() {
        if b.is_alive(ids[i]) {
            for &r in roles {
                pending.push((i, r));
            }
        } else {
            // Purged at close ⇒ its whole subtree carried no roles; its
            // own list must be empty.
            assert!(roles.is_empty(), "node purged while holding roles");
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    // Fisher-Yates shuffle.
    for i in (1..pending.len()).rev() {
        let j = rng.random_range(0..=i);
        pending.swap(i, j);
    }

    let mut last_bytes = b.stats().live_bytes;
    for (i, r) in pending {
        assert!(b.is_alive(ids[i]), "role-holding node must still be alive");
        b.sign_off(ids[i], r, 1).expect("defined removal");
        let now = b.stats().live_bytes;
        assert!(
            now <= last_bytes,
            "buffer footprint grew across a signOff ({last_bytes} -> {now})"
        );
        last_bytes = now;
    }
    assert!(b.all_roles_returned(), "accounting balances");
    assert_eq!(
        b.stats().live_nodes,
        1,
        "only the virtual root survives after all signOffs (seed {seed})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_lifetimes(seed in 0u64..1_000_000) {
        check_case(seed);
    }
}

#[test]
fn pinned_seeds() {
    for seed in [0, 1, 2, 99, 4242, 123456] {
        check_case(seed);
    }
}

/// Pins interact with random signOff orders: pinning a random node during
/// the teardown defers its purge but never breaks accounting.
#[test]
fn pins_during_teardown() {
    for seed in 0..200u64 {
        let w = random_workload(seed);
        let mut tags = TagInterner::new();
        let mut b = BufferTree::new(w.role_count, &[]);
        let ids = build(&w, &mut b, &mut tags);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let alive: Vec<usize> = (0..w.nodes.len()).filter(|&i| b.is_alive(ids[i])).collect();
        let pinned = alive
            .get(
                rng.random_range(0..alive.len().max(1))
                    .min(alive.len().saturating_sub(1)),
            )
            .copied();
        if let Some(p) = pinned {
            b.pin(ids[p], BufferTree::ROOT);
        }
        for (i, (_, roles)) in w.nodes.iter().enumerate() {
            if !b.is_alive(ids[i]) {
                continue;
            }
            for &r in roles {
                b.sign_off(ids[i], r, 1).expect("defined");
            }
        }
        if let Some(p) = pinned {
            assert!(b.is_alive(ids[p]), "pinned node survives");
            b.unpin(ids[p], BufferTree::ROOT);
        }
        assert!(b.all_roles_returned());
        assert_eq!(b.stats().live_nodes, 1, "seed {seed}");
    }
}

/// Base-bounded pins, the way nested for-loop cursors take them: a chain
/// pins a node under the root, a descendant of it under that node, and a
/// descendant of *that* under the second — each pin counts only up to its
/// base. Sign-offs run in random order with chains unwinding innermost
/// first at random points. Every pinned node and its ancestors stay alive
/// until unpinned, and after the last unpin only the root survives.
#[test]
fn nested_base_bounded_pins_during_teardown() {
    for seed in 0..300u64 {
        let w = random_workload(seed);
        let mut tags = TagInterner::new();
        let mut b = BufferTree::new(w.role_count, &[]);
        let ids = build(&w, &mut b, &mut tags);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA5E);
        let is_ancestor = |anc: usize, mut i: usize| {
            while let Some(p) = w.nodes[i].0 {
                if p == anc {
                    return true;
                }
                i = p;
            }
            false
        };
        let alive: Vec<usize> = (0..w.nodes.len()).filter(|&i| b.is_alive(ids[i])).collect();
        // Each chain is a stack of (node, base) pins, outermost first.
        let mut chains: Vec<Vec<(BufNodeId, BufNodeId)>> = Vec::new();
        for _ in 0..rng.random_range(0..4usize) {
            if alive.is_empty() {
                break;
            }
            let mut chain = Vec::new();
            let mut at = alive[rng.random_range(0..alive.len())];
            let mut base = BufferTree::ROOT;
            for depth in 0..3 {
                b.pin(ids[at], base);
                chain.push((ids[at], base));
                let below: Vec<usize> = alive
                    .iter()
                    .copied()
                    .filter(|&j| is_ancestor(at, j))
                    .collect();
                if below.is_empty() || depth == 2 {
                    break;
                }
                base = ids[at];
                at = below[rng.random_range(0..below.len())];
            }
            chains.push(chain);
        }
        let mut pending: Vec<(usize, Role)> = alive
            .iter()
            .flat_map(|&i| w.nodes[i].1.iter().map(move |&r| (i, r)))
            .collect();
        for i in (1..pending.len()).rev() {
            let j = rng.random_range(0..=i);
            pending.swap(i, j);
        }
        let check_pinned = |b: &BufferTree, chains: &[Vec<(BufNodeId, BufNodeId)>]| {
            for &(id, _) in chains.iter().flatten() {
                let mut at = Some(id);
                while let Some(x) = at {
                    assert!(
                        b.is_alive(x),
                        "pinned node or ancestor purged (seed {seed})"
                    );
                    at = b.parent(x);
                }
            }
        };
        for (i, r) in pending {
            b.sign_off(ids[i], r, 1).expect("defined removal");
            check_pinned(&b, &chains);
            if !chains.is_empty() && rng.random_bool(0.3) {
                let c = rng.random_range(0..chains.len());
                let (id, base) = chains[c].pop().expect("chains are non-empty");
                b.unpin(id, base);
                if chains[c].is_empty() {
                    chains.swap_remove(c);
                }
                check_pinned(&b, &chains);
            }
        }
        while let Some(mut chain) = chains.pop() {
            while let Some((id, base)) = chain.pop() {
                assert!(b.is_alive(id), "pinned node survives (seed {seed})");
                b.unpin(id, base);
            }
            check_pinned(&b, &chains);
        }
        assert!(b.all_roles_returned(), "seed {seed}");
        assert_eq!(b.stats().live_nodes, 1, "seed {seed}");
    }
}
