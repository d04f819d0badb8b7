//! The shared neighbor-computation seam.
//!
//! Identification (naïve or optimized, dense or pruned) and the remedy
//! both need the same primitive: *given one region of a node, what are the
//! class counts of its neighboring region?* Before this module each caller
//! hand-rolled its own `match` over [`Neighborhood`], so the ordered-radius
//! metric existed only on the identify side and the Unit/Full arms were
//! duplicated between `identify.rs` and `remedy.rs`.
//!
//! A [`NeighborModel`] is built **once per node** — amortizing whatever
//! per-node state the neighborhood needs — and then answers
//! [`neighbor_counts`](NeighborModel::neighbor_counts) per region:
//!
//! * **Unit, naïve** (§III-A): holds the node's region map and the
//!   per-slot cardinalities; each query enumerates the `(c−1)·d` siblings
//!   that differ in exactly one value.
//! * **Unit, optimized** (§III-B, Algorithm 1): holds the `d` dominating
//!   projections one level up; each query does `d` lookups and corrects
//!   the `d`-fold over-count of the region itself.
//! * **Full, naïve**: holds the region map; each query sums the
//!   complement.
//! * **Full, optimized**: holds the node's totals; each query is one
//!   subtraction.
//! * **OrderedRadius(T)**: holds a distance table — every region of the
//!   node plus per-slot ordered flags — and each query sums the regions
//!   within Euclidean distance `T`, where ordered attributes contribute
//!   their code gap and unordered ones `0/1`. Both algorithms share this
//!   enumeration, so Naive ≡ Optimized holds for the refined metric too.
//!
//! The model has two constructors. [`for_node`](NeighborModel::for_node)
//! borrows a node of a prebuilt lattice, dense or support-pruned (the
//! identify side; dominating projections are borrowed from the parent
//! nodes, which a pruned lattice keeps because its node set is downward
//! closed).
//! [`for_snapshot`](NeighborModel::for_snapshot) starts from a bare
//! region-count map (the remedy side, which re-counts the mutating
//! dataset per node and has no lattice to lean on; dominating
//! projections are built by dropping one key byte at a time).

use crate::hash::FastMap;
use crate::hierarchy::{drop_byte, get_byte, set_byte, Node};
use crate::identify::Algorithm;
use crate::neighborhood::Neighborhood;
use crate::score::Counts;
use crate::sparse::SparseHierarchy;

/// Lookup/underflow tallies of one batch of neighbor queries.
///
/// `lookups` counts one unit per region fetched — `(c−1)` siblings per
/// slot for the naïve unit scan, `d` dominating regions for the optimized
/// one, one candidate per distance check for the ordered metric — which is
/// what makes the paper's `(c−1)·d` vs `d` per-region cost claim (§III-B)
/// directly observable. `underflows` counts the (hierarchy-inconsistency
/// -only) checked-correction fallbacks of Algorithm 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NeighborTally {
    /// Region fetches performed.
    pub lookups: u64,
    /// Over-count corrections that underflowed (inconsistent counts).
    pub underflows: u64,
}

impl NeighborTally {
    /// Folds another tally into this one.
    pub fn merge(&mut self, other: NeighborTally) {
        self.lookups += other.lookups;
        self.underflows += other.underflows;
    }
}

/// Per-slot dominating-region counts: borrowed from a parent node of a
/// prebuilt lattice, or owned when projected out of a bare snapshot.
enum ParentCounts<'a> {
    Borrowed(&'a FastMap<u128, Counts>),
    Owned(FastMap<u128, Counts>),
    /// The dominating "region" one level above a single-attribute node is
    /// the whole dataset.
    Totals(Counts),
}

impl ParentCounts<'_> {
    fn get(&self, key: u128) -> Counts {
        match self {
            ParentCounts::Borrowed(map) => map.get(&key).copied().unwrap_or_default(),
            ParentCounts::Owned(map) => map.get(&key).copied().unwrap_or_default(),
            ParentCounts::Totals(totals) => *totals,
        }
    }
}

enum Mode<'a> {
    NaiveUnit {
        regions: &'a FastMap<u128, Counts>,
        cards: Vec<u32>,
    },
    DominatingUnit {
        parents: Vec<ParentCounts<'a>>,
    },
    NaiveFull {
        regions: &'a FastMap<u128, Counts>,
    },
    TotalsFull {
        totals: Counts,
    },
    Ordered {
        table: Vec<(u128, Counts)>,
        ordered: Vec<bool>,
        radius: f64,
    },
}

/// Per-node neighbor oracle; see the module docs for the five modes.
pub struct NeighborModel<'a> {
    mode: Mode<'a>,
}

impl<'a> NeighborModel<'a> {
    /// Builds the model for one node of a prebuilt lattice (a dense
    /// [`Hierarchy`](crate::Hierarchy) coerces), honoring the algorithm
    /// choice for Unit/Full. The ordered-radius metric has a single
    /// enumeration path shared by both algorithms.
    ///
    /// The dominating-unit parents are always present: a pruned
    /// lattice's mask set is downward closed, so every parent of a kept
    /// node is kept too (a frequent region projects onto a parent region
    /// of at least the same support).
    pub fn for_node(
        lattice: &'a SparseHierarchy,
        node: &'a Node,
        neighborhood: Neighborhood,
        algorithm: Algorithm,
    ) -> NeighborModel<'a> {
        let mode = match (algorithm, neighborhood) {
            (_, Neighborhood::OrderedRadius(t)) => Mode::Ordered {
                table: node.regions.iter().map(|(&k, &c)| (k, c)).collect(),
                ordered: node.attrs.iter().map(|&j| lattice.is_ordered(j)).collect(),
                radius: t,
            },
            (Algorithm::Naive, Neighborhood::Unit) => Mode::NaiveUnit {
                regions: &node.regions,
                cards: node.attrs.iter().map(|&j| lattice.cardinality(j)).collect(),
            },
            (Algorithm::Naive, Neighborhood::Full) => Mode::NaiveFull {
                regions: &node.regions,
            },
            (Algorithm::Optimized, Neighborhood::Unit) => Mode::DominatingUnit {
                parents: (0..node.attrs.len())
                    .map(|slot| {
                        let parent_mask = node.mask & !(1 << node.attrs[slot]);
                        if parent_mask == 0 {
                            ParentCounts::Totals(lattice.totals())
                        } else {
                            let parent = lattice.node(parent_mask).unwrap_or_else(|| {
                                panic!("pruned parent {parent_mask:#x} of a kept node")
                            });
                            ParentCounts::Borrowed(&parent.regions)
                        }
                    })
                    .collect(),
            },
            (Algorithm::Optimized, Neighborhood::Full) => Mode::TotalsFull {
                totals: lattice.totals(),
            },
        };
        NeighborModel { mode }
    }

    /// Builds the model from a bare region-count map of one node — the
    /// remedy path, which re-counts the current (mutating) dataset per
    /// node. `ordered[slot]` flags which of the node's attribute slots are
    /// ordered; its length is the node's level `d`. Unit and Full use the
    /// exact optimized forms (dominating projections / totals), so remedy
    /// targets agree with every identification driver.
    pub fn for_snapshot(
        counts: &'a FastMap<u128, Counts>,
        ordered: &[bool],
        neighborhood: Neighborhood,
    ) -> NeighborModel<'a> {
        let d = ordered.len();
        let mode = match neighborhood {
            Neighborhood::Unit => Mode::DominatingUnit {
                parents: (0..d)
                    .map(|slot| {
                        let mut parent: FastMap<u128, Counts> = FastMap::default();
                        for (&key, &c) in counts {
                            parent.entry(drop_byte(key, slot)).or_default().add(c);
                        }
                        ParentCounts::Owned(parent)
                    })
                    .collect(),
            },
            Neighborhood::Full => Mode::TotalsFull {
                totals: counts.values().fold(Counts::default(), |mut acc, &c| {
                    acc.add(c);
                    acc
                }),
            },
            Neighborhood::OrderedRadius(t) => Mode::Ordered {
                table: counts.iter().map(|(&k, &c)| (k, c)).collect(),
                ordered: ordered.to_vec(),
                radius: t,
            },
        };
        NeighborModel { mode }
    }

    /// Class counts of the neighboring region of `(key, own)`, tallying
    /// one lookup per region actually fetched (see [`NeighborTally`]).
    pub fn neighbor_counts(&self, key: u128, own: Counts, tally: &mut NeighborTally) -> Counts {
        match &self.mode {
            Mode::NaiveUnit { regions, cards } => {
                // enumerate the (c−1)·d siblings that differ in one value
                let mut sum = Counts::default();
                for (slot, &card) in cards.iter().enumerate() {
                    let code = get_byte(key, slot);
                    for v in 0..card {
                        if v == code {
                            continue;
                        }
                        if let Some(c) = regions.get(&set_byte(key, slot, v)) {
                            sum.add(*c);
                        }
                        tally.lookups += 1;
                    }
                }
                sum
            }
            Mode::DominatingUnit { parents } => {
                // Σ_{R_d} counts − |R_d| × own (Algorithm 1, line 10)
                let d = parents.len() as u64;
                let mut sum = Counts::default();
                for (slot, parent) in parents.iter().enumerate() {
                    sum.add(parent.get(drop_byte(key, slot)));
                }
                tally.lookups += d;
                // Every dominating region contains (key)'s rows, so on a
                // consistent hierarchy the sum can never undershoot d·own;
                // raw subtraction here used to panic in debug builds (and
                // wrap in release) if a corrupted cache artifact broke
                // that invariant. Degrade to a saturating estimate
                // instead, and surface the inconsistency via the
                // `neighbor_underflow` counter.
                match sum.checked_correction(d, own) {
                    Some(corrected) => corrected,
                    None => {
                        debug_assert!(
                            false,
                            "inconsistent hierarchy: Σ dominating {sum:?} < {d}·{own:?}"
                        );
                        tally.underflows += 1;
                        sum.saturating_sub(Counts::new(
                            d.saturating_mul(own.pos),
                            d.saturating_mul(own.neg),
                        ))
                    }
                }
            }
            Mode::NaiveFull { regions } => {
                // enumerate every other region in the node
                let mut sum = Counts::default();
                for (&k, &c) in regions.iter() {
                    if k != key {
                        sum.add(c);
                        tally.lookups += 1;
                    }
                }
                sum
            }
            Mode::TotalsFull { totals } => {
                // the node's regions partition D, so the complement is
                // totals − r
                tally.lookups += 1;
                totals.saturating_sub(own)
            }
            Mode::Ordered {
                table,
                ordered,
                radius,
            } => {
                // all same-node regions within Euclidean distance T, where
                // ordered attributes contribute their code gap and
                // unordered ones 0/1
                let mut sum = Counts::default();
                let t2 = radius * radius;
                for &(other, c) in table {
                    if other == key {
                        continue;
                    }
                    tally.lookups += 1;
                    let mut dist2 = 0.0;
                    for (slot, &is_ord) in ordered.iter().enumerate() {
                        let a = get_byte(key, slot);
                        let b = get_byte(other, slot);
                        let gap = if is_ord {
                            (f64::from(a) - f64::from(b)).abs()
                        } else if a == b {
                            0.0
                        } else {
                            1.0
                        };
                        dist2 += gap * gap;
                        if dist2 > t2 {
                            break;
                        }
                    }
                    if dist2 <= t2 {
                        sum.add(c);
                    }
                }
                sum
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hierarchy;
    use remedy_dataset::{Attribute, Dataset, Schema};

    /// Two protected attributes (3×2), the second one ordered.
    fn fixture() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1", "2"]).protected(),
                Attribute::from_strs("o", &["0", "1"]).protected().ordered(),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for a in 0..3u32 {
            for o in 0..2u32 {
                for i in 0..(10 + 5 * a + o) {
                    d.push_row(&[a, o], u8::from(i % 3 == 0)).unwrap();
                }
            }
        }
        d
    }

    #[test]
    fn snapshot_unit_matches_hierarchy_unit() {
        let d = fixture();
        let h = Hierarchy::try_build(&d).unwrap();
        let node = h.node(0b11);
        let ordered = [false, true];
        for neighborhood in [Neighborhood::Unit, Neighborhood::Full] {
            let from_node = NeighborModel::for_node(&h, node, neighborhood, Algorithm::Optimized);
            let from_snapshot = NeighborModel::for_snapshot(&node.regions, &ordered, neighborhood);
            for (&key, &own) in &node.regions {
                let mut t = NeighborTally::default();
                assert_eq!(
                    from_node.neighbor_counts(key, own, &mut t),
                    from_snapshot.neighbor_counts(key, own, &mut t),
                    "{neighborhood:?} key {key:#x}"
                );
            }
        }
    }

    #[test]
    fn snapshot_ordered_matches_hierarchy_ordered() {
        let d = fixture();
        let h = Hierarchy::try_build(&d).unwrap();
        let node = h.node(0b11);
        let ordered = [false, true];
        for alg in [Algorithm::Naive, Algorithm::Optimized] {
            let from_node =
                NeighborModel::for_node(&h, node, Neighborhood::OrderedRadius(1.0), alg);
            let from_snapshot = NeighborModel::for_snapshot(
                &node.regions,
                &ordered,
                Neighborhood::OrderedRadius(1.0),
            );
            for (&key, &own) in &node.regions {
                let mut t = NeighborTally::default();
                assert_eq!(
                    from_node.neighbor_counts(key, own, &mut t),
                    from_snapshot.neighbor_counts(key, own, &mut t),
                    "{alg:?} key {key:#x}"
                );
            }
        }
    }

    #[test]
    fn single_attribute_unit_neighborhood_is_complement() {
        // at level 1 the unit siblings of a region are all other values,
        // i.e. the complement; the dominating "region" is the root totals
        let d = fixture();
        let h = Hierarchy::try_build(&d).unwrap();
        let node = h.node(0b01);
        let naive = NeighborModel::for_node(&h, node, Neighborhood::Unit, Algorithm::Naive);
        let optimized = NeighborModel::for_node(&h, node, Neighborhood::Unit, Algorithm::Optimized);
        for (&key, &own) in &node.regions {
            let mut t = NeighborTally::default();
            let n = naive.neighbor_counts(key, own, &mut t);
            assert_eq!(n, optimized.neighbor_counts(key, own, &mut t));
            assert_eq!(n, h.totals().saturating_sub(own));
        }
    }

    /// The §III-B cost claim in tally form: per region, naïve unit pays
    /// `(c−1)·d` fetches and optimized unit pays `d`.
    #[test]
    fn unit_tallies_reflect_cost_model() {
        let d = fixture();
        let h = Hierarchy::try_build(&d).unwrap();
        let node = h.node(0b11);
        let naive = NeighborModel::for_node(&h, node, Neighborhood::Unit, Algorithm::Naive);
        let optimized = NeighborModel::for_node(&h, node, Neighborhood::Unit, Algorithm::Optimized);
        let key = *node.regions.keys().next().unwrap();
        let own = node.regions[&key];
        let mut tn = NeighborTally::default();
        let mut to = NeighborTally::default();
        naive.neighbor_counts(key, own, &mut tn);
        optimized.neighbor_counts(key, own, &mut to);
        assert_eq!(tn.lookups, (3 - 1) + (2 - 1)); // (c−1) per slot
        assert_eq!(to.lookups, 2); // d
        assert_eq!(to.underflows, 0);
    }

    /// Regression (ordered tally bug): OrderedRadius used to charge a flat
    /// `regions.len() − 1` regardless of the candidates actually fetched.
    /// Querying a key *absent* from the node inspects every region, and
    /// the tally must say so.
    #[test]
    fn ordered_tally_counts_real_candidate_fetches() {
        let d = fixture();
        let h = Hierarchy::try_build(&d).unwrap();
        let node = h.node(0b11);
        let model =
            NeighborModel::for_node(&h, node, Neighborhood::OrderedRadius(1.0), Algorithm::Naive);
        let n = node.regions.len() as u64;

        // present key: every *other* region is a candidate
        let key = *node.regions.keys().next().unwrap();
        let mut t = NeighborTally::default();
        model.neighbor_counts(key, node.regions[&key], &mut t);
        assert_eq!(t.lookups, n - 1);

        // absent key: all n regions are fetched and checked
        let absent = 0x0909u128;
        assert!(!node.regions.contains_key(&absent));
        let mut t = NeighborTally::default();
        model.neighbor_counts(absent, Counts::default(), &mut t);
        assert_eq!(t.lookups, n);
    }

    #[test]
    fn tally_merge_accumulates() {
        let mut a = NeighborTally {
            lookups: 3,
            underflows: 1,
        };
        a.merge(NeighborTally {
            lookups: 4,
            underflows: 0,
        });
        assert_eq!(
            a,
            NeighborTally {
                lookups: 7,
                underflows: 1
            }
        );
    }
}
