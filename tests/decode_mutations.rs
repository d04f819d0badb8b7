//! Seeded mutation test of the five line-oriented artifact decoders
//! (`remedy-dataset`, `remedy-ibs`, `remedy-counts`, `remedy-model`,
//! `remedy-metrics`). Valid artifacts from a small COMPAS fixture are
//! mutated — bytes substituted, lines deleted, duplicated or swapped, the
//! text truncated, decimal fields (header counts among them) rewritten
//! to `u64::MAX` — and every mutant must decode to `Ok` or a typed
//! `Err`: no panic, peak heap growth linear in the input, and the whole
//! run inside a fixed wall-clock bound.
//!
//! Run it in release mode too (`cargo test --release --test
//! decode_mutations`): overflow checks are off there, so an unchecked
//! sum that panics in debug passes silently instead.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy::classifiers::persist::{forest_to_text, ModelFamily};
use remedy::classifiers::{self, Model, RandomForest, RandomForestParams};
use remedy::core::persist::{counts_from_text, counts_to_text, regions_from_text, regions_to_text};
use remedy::core::{
    identify, try_identify_counts_with, Algorithm, Enumeration, IbsParams, ShardCounts,
};
use remedy::dataset::persist::{dataset_from_text, dataset_to_text};
use remedy::dataset::synth;
use remedy::fairness::{audit_score, MetricsSummary, Statistic};
use remedy_obs::Scope as ObsScope;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Counts the live heap bytes of the current thread and their peak, so
/// each decode's allocation can be bounded by its input's length.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn track(grow: usize, shrink: usize) {
    let _ = LIVE.try_with(|live| {
        let now = (live.get() + grow).saturating_sub(shrink);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the bookkeeping only touches const-initialized
// thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`
        // above with this `layout`, as the caller guarantees.
        System.dealloc(ptr, layout);
        track(0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size, layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A decoder under test: `true` when it accepted the text.
type Decode = fn(&str) -> bool;

/// The whole run, debug build included, must finish inside this bound.
const TIME_BOUND: Duration = Duration::from_secs(60);

/// Mutants per fixture.
const MUTANTS: usize = 300;

/// Valid artifacts of every text format, from one small COMPAS fixture.
fn fixtures() -> Vec<(&'static str, String, Decode)> {
    let data = synth::compas_n(300, 7);
    let regions = identify(&data, &IbsParams::default(), Algorithm::Optimized);
    assert!(!regions.is_empty(), "the IBS fixture needs regions");
    let counts = ShardCounts::scan(&data, 0).unwrap();
    let forest = RandomForest::fit(
        &data,
        &RandomForestParams {
            n_trees: 3,
            ..RandomForestParams::default()
        },
        7,
    );
    let model = |family: ModelFamily| family.fit_to_text(&data, 7);
    let predictions = classifiers::persist::from_text(&model(ModelFamily::DecisionTree))
        .unwrap()
        .predict(&data);
    let audit = audit_score(&data, &predictions, Statistic::Fpr, 0.1, 0.05).unwrap();
    let summary = MetricsSummary {
        statistic: Statistic::Fpr,
        accuracy: audit.accuracy,
        fairness_index: audit.fairness_index,
        unfair_subgroups: audit.unfair.len() as u64,
        test_rows: data.len() as u64,
    };
    let model_decode: Decode = |t| classifiers::persist::from_text(t).is_ok();
    vec![
        ("dataset", dataset_to_text(&data), |t| {
            dataset_from_text(t).is_ok()
        }),
        ("ibs", regions_to_text(&regions), |t| {
            regions_from_text(t).is_ok()
        }),
        ("counts", counts_to_text(&counts), decode_and_identify),
        ("dt", model(ModelFamily::DecisionTree), model_decode),
        ("rf", forest_to_text(&forest), model_decode),
        ("lg", model(ModelFamily::LogisticRegression), model_decode),
        ("nb", model(ModelFamily::NaiveBayes), model_decode),
        ("metrics", summary.to_text(), |t| {
            MetricsSummary::from_text(t).is_ok()
        }),
    ]
}

/// Decodes shard counts and, when they decode, identifies over them with
/// both enumerations: a counts artifact carries its own column layout, so
/// nothing it decodes to may panic downstream either.
fn decode_and_identify(text: &str) -> bool {
    let Ok(counts) = counts_from_text(text) else {
        return false;
    };
    for enumeration in [Enumeration::Dense, Enumeration::Pruned] {
        let params = IbsParams::builder()
            .enumeration(enumeration)
            .build()
            .unwrap();
        let _ = try_identify_counts_with(
            counts.clone(),
            &params,
            Algorithm::Optimized,
            &ObsScope::disabled(),
        );
    }
    true
}

/// Bytes a substitution draws from: the formats' own alphabet (digits,
/// hex, separators, escapes, record tags) plus a few strangers.
const ALPHABET: &[u8] = b"0123456789abcdef -:%\n\rxzp.o";

/// Applies one random mutation.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    if text.is_empty() {
        return String::new();
    }
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let pick = |rng: &mut StdRng, n: usize| rng.gen_range(0..n);
    match rng.gen_range(0..6u32) {
        0 => {
            let mut bytes = text.as_bytes().to_vec();
            let at = pick(rng, bytes.len());
            bytes[at] = ALPHABET[pick(rng, ALPHABET.len())];
            return String::from_utf8(bytes).expect("fixtures and alphabet are ASCII");
        }
        1 => {
            let at = pick(rng, lines.len());
            lines.remove(at);
        }
        2 => {
            let at = pick(rng, lines.len());
            let line = lines[at].clone();
            lines.insert(at, line);
        }
        3 => {
            let (a, b) = (pick(rng, lines.len()), pick(rng, lines.len()));
            lines.swap(a, b);
        }
        4 => return text[..pick(rng, text.len())].to_string(),
        _ => {
            // a decimal field — a header count, a leaf tally, a node's
            // child index — becomes `u64::MAX`
            let numeric: Vec<(usize, usize)> = (0..lines.len())
                .flat_map(|i| {
                    let fields = lines[i].split(' ').enumerate();
                    let decimal = fields.filter(|(_, f)| f.parse::<u64>().is_ok());
                    decimal.map(move |(j, _)| (i, j)).collect::<Vec<_>>()
                })
                .collect();
            if numeric.is_empty() {
                return text.to_string();
            }
            let (i, j) = numeric[pick(rng, numeric.len())];
            let mut fields: Vec<String> = lines[i].split(' ').map(String::from).collect();
            fields[j] = u64::MAX.to_string();
            lines[i] = fields.join(" ");
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Decodes `text` under `catch_unwind` with the heap tracked: whether it
/// was accepted (or the panic message) and the peak heap growth.
fn decode_guarded(decode: Decode, text: &str) -> (Result<bool, String>, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let outcome = catch_unwind(AssertUnwindSafe(|| decode(text)));
    let grown = PEAK.with(Cell::get).saturating_sub(base);
    let outcome = outcome.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    });
    (outcome, grown)
}

/// The most heap a decode may grow for an input of `len` bytes.
fn heap_bound(len: usize) -> usize {
    64 * len + (1 << 16)
}

#[test]
fn mutated_artifacts_decode_without_panicking() {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(0x5EED_DEC0);
    let mut failures = Vec::new();
    let (mut accepted, mut total) = (0, 0);
    for (name, text, decode) in fixtures() {
        assert!(decode(&text), "{name}: the unmutated fixture must decode");
        for case in 0..MUTANTS {
            let mut mutant = mutate(&text, &mut rng);
            for _ in 0..rng.gen_range(0..3u32) {
                mutant = mutate(&mutant, &mut rng);
            }
            let (outcome, grown) = decode_guarded(decode, &mutant);
            let verdict = match outcome {
                Err(message) => Some(format!("panicked: {message}")),
                Ok(_) if grown > heap_bound(mutant.len()) => Some(format!(
                    "grew the heap by {grown} bytes for a {}-byte input",
                    mutant.len()
                )),
                Ok(ok) => {
                    accepted += usize::from(ok);
                    None
                }
            };
            if let Some(verdict) = verdict {
                let head: String = mutant.chars().take(400).collect();
                failures.push(format!("{name} case {case}: {verdict}\n{head}"));
            }
            total += 1;
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n---\n"));
    // most mutants break their artifact; a harness whose mutants all
    // decode would be testing nothing
    assert!(
        accepted < total / 2,
        "{accepted} of {total} mutants decoded"
    );
    let elapsed = start.elapsed();
    assert!(elapsed < TIME_BOUND, "took {elapsed:?}");
}

/// Hostile inputs found by hand: a tree whose split points past the node
/// list (an out-of-bounds index at prediction), one whose split is its
/// own child (a prediction that never returns), shard counts whose leaf
/// sum overflows `u64`, and shard counts with a leaf of no rows (which
/// overwrote a region's counts in the pruned lattice builder).
#[test]
fn known_hostile_inputs_are_typed_errors() {
    let max = u64::MAX;
    let model: Decode = |t| classifiers::persist::from_text(t).is_ok();
    let counts: Decode = |t| counts_from_text(t).is_ok();
    for (decode, text) in [
        (model, "remedy-model v1\nkind decision-tree\nnodes 1\nsplit 0 0 5 5\n".to_string()),
        (model, "remedy-model v1\nkind decision-tree\nnodes 1\nsplit 0 0 0 0\n".to_string()),
        (
            counts,
            format!(
                "remedy-counts v1\nprotected 1\ncol 0 2 0\ntotals 1 0\nleaves 2\nleaf 0 {max} 0\nleaf 1 2 0\n"
            ),
        ),
        (
            counts,
            "remedy-counts v1\nprotected 2\ncol 0 2 0\ncol 1 2 0\ntotals 42 0\nleaves 2\nleaf 0 0 0\nleaf 100 42 0\n"
                .to_string(),
        ),
    ] {
        let outcome = catch_unwind(|| decode(&text));
        assert_eq!(outcome.ok(), Some(false), "{text:?}");
    }
}
