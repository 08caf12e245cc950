//! Generic iterative bit-vector data-flow solver.
//!
//! All the classic analyses Ped relied on (reaching definitions, liveness,
//! kill analysis) are instances of one worklist scheme over gen/kill sets.
//! We keep a small dense [`BitSet`] rather than pulling in a crate — the
//! solver is on the editor's interactive path, so it must be allocation-free
//! per iteration.

use crate::cfg::{Cfg, NodeId};

/// A fixed-capacity dense bit set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set with capacity for `len` bits.
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// Set a bit.
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clear a bit.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Test a bit.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of bits this set can hold.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// `self |= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self = (self \ kill) ∪ gen` in place — the classic transfer function.
    pub fn transfer(&mut self, gen: &BitSet, kill: &BitSet) {
        for ((a, g), k) in self.words.iter_mut().zip(&gen.words).zip(&kill.words) {
            *a = (*a & !k) | g;
        }
    }

    /// Make every bit 1.
    pub fn fill(&mut self) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        // Mask stray high bits so equality tests stay meaningful.
        let extra = self.words.len() * 64 - self.len;
        if extra > 0 && !self.words.is_empty() {
            let last = self.words.len() - 1;
            self.words[last] >>= extra;
        }
    }

    /// Make every bit 0.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Iterate set bit indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            let mut out = Vec::with_capacity(w.count_ones() as usize);
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                out.push(wi * 64 + b);
                w &= w - 1;
            }
            out
        })
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Direction of a data-flow problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Information flows along control-flow edges (e.g. reaching defs).
    Forward,
    /// Information flows against control-flow edges (e.g. liveness).
    Backward,
}

/// Meet operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meet {
    /// May analyses (union).
    Union,
    /// Must analyses (intersection).
    Intersect,
}

/// Solution of a bit-vector problem: `inn[n]` / `out[n]` per node.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Facts on entry to each node.
    pub inn: Vec<BitSet>,
    /// Facts on exit from each node.
    pub out: Vec<BitSet>,
}

/// Solve `out[n] = gen[n] ∪ (meet(preds) \ kill[n])` (forward) or the mirror
/// (backward) to a fixed point with a worklist.
///
/// `boundary` seeds the entry node (forward) or exit node (backward);
/// interior nodes start at ⊤ for `Meet::Intersect` and ∅ for `Meet::Union`.
pub fn solve(
    cfg: &Cfg,
    gen: &[BitSet],
    kill: &[BitSet],
    dir: Direction,
    meet: Meet,
    boundary: &BitSet,
) -> Solution {
    let n = cfg.len();
    let bits = boundary.capacity();
    debug_assert_eq!(gen.len(), n);
    debug_assert_eq!(kill.len(), n);
    let mut inn: Vec<BitSet> = Vec::with_capacity(n);
    let mut out: Vec<BitSet> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut init = BitSet::new(bits);
        if meet == Meet::Intersect {
            init.fill();
        }
        inn.push(init.clone());
        out.push(init);
    }

    let start = match dir {
        Direction::Forward => cfg.entry,
        Direction::Backward => cfg.exit,
    };
    // Boundary facts enter the start node's input side.
    match dir {
        Direction::Forward => inn[start.index()] = boundary.clone(),
        Direction::Backward => out[start.index()] = boundary.clone(),
    }

    // Iterate in (reverse-)RPO until stable; bounded worklist by rounds.
    let order: Vec<NodeId> = match dir {
        Direction::Forward => cfg.rpo(),
        Direction::Backward => {
            let mut o = cfg.rpo();
            o.reverse();
            o
        }
    };
    let mut scratch = BitSet::new(bits);
    let mut changed = true;
    while changed {
        changed = false;
        for &node in &order {
            let i = node.index();
            // Meet over incoming facts.
            let sources: &[NodeId] = match dir {
                Direction::Forward => &cfg.preds[i],
                Direction::Backward => &cfg.succs[i],
            };
            if !sources.is_empty() {
                match meet {
                    Meet::Union => scratch.clear(),
                    Meet::Intersect => scratch.fill(),
                }
                for &s in sources {
                    let src = match dir {
                        Direction::Forward => &out[s.index()],
                        Direction::Backward => &inn[s.index()],
                    };
                    match meet {
                        Meet::Union => {
                            scratch.union_with(src);
                        }
                        Meet::Intersect => scratch.intersect_with(src),
                    }
                }
                // For the start node also meet in the boundary facts.
                if node == start && meet == Meet::Union {
                    scratch.union_with(boundary);
                } else if node == start && meet == Meet::Intersect {
                    scratch.intersect_with(boundary);
                }
                match dir {
                    Direction::Forward => inn[i] = scratch.clone(),
                    Direction::Backward => out[i] = scratch.clone(),
                }
            }
            // Transfer.
            let (src, dst) = match dir {
                Direction::Forward => (&inn[i], &mut out[i]),
                Direction::Backward => (&out[i], &mut inn[i]),
            };
            let mut new = src.clone();
            new.transfer(&gen[i], &kill[i]);
            if new != *dst {
                *dst = new;
                changed = true;
            }
        }
    }
    Solution { inn, out }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basics() {
        let mut b = BitSet::new(130);
        b.insert(0);
        b.insert(64);
        b.insert(129);
        assert!(b.contains(0) && b.contains(64) && b.contains(129));
        assert!(!b.contains(1));
        assert_eq!(b.count(), 3);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        b.remove(64);
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn bitset_fill_masks_tail() {
        let mut b = BitSet::new(70);
        b.fill();
        assert_eq!(b.count(), 70);
    }

    #[test]
    fn transfer_gen_kill() {
        let mut x = BitSet::new(8);
        x.insert(1);
        x.insert(2);
        let mut gen = BitSet::new(8);
        gen.insert(3);
        let mut kill = BitSet::new(8);
        kill.insert(1);
        x.transfer(&gen, &kill);
        assert_eq!(x.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn union_with_reports_change() {
        let mut a = BitSet::new(8);
        let mut b = BitSet::new(8);
        b.insert(5);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
    }
}
