//! Seeded mutation test of the five line-oriented artifact decoders
//! (`remedy-dataset`, `remedy-ibs`, `remedy-counts`, `remedy-model`,
//! `remedy-metrics`) and the three binary ones (`remedy-columnar` with
//! and without its packed-key sidecar, `remedy-wal`, `remedy-snapshot`).
//! Valid artifacts from a small COMPAS fixture are mutated — text bytes
//! substituted, lines deleted, duplicated or swapped, the text truncated,
//! decimal fields (header counts among them) rewritten to `u64::MAX`;
//! binary bytes substituted, spans duplicated, the bytes truncated, a
//! `u32`/`u64` window set to all ones — and every mutant must decode to
//! `Ok` or a typed `Err`: no panic, peak heap growth linear in the input,
//! and each run inside a fixed wall-clock bound. Half the mutants of the
//! digest-framed formats (WAL records, snapshot bodies) get their digests
//! recomputed, so the decoder behind the digest runs on them too.
//!
//! Run it in release mode too (`cargo test --release --test
//! decode_mutations`): overflow checks are off there, so an unchecked
//! sum that panics in debug passes silently instead.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remedy::classifiers::{self, Model, ModelKind, RandomForest, RandomForestParams, SavedModel};
use remedy::core::persist::{counts_from_text, counts_to_text, regions_from_text, regions_to_text};
use remedy::core::{
    identify, try_identify_counts_with, Algorithm, Enumeration, IbsParams, ShardCounts,
};
use remedy::dataset::format::{content_digest, Bytes};
use remedy::dataset::persist::{dataset_from_text, dataset_to_text};
use remedy::dataset::{store, synth, RowEdit};
use remedy::fairness::{audit_score, MetricsSummary, Statistic};
use remedy_obs::Scope as ObsScope;
use remedy_serve::durable::{self, DurableConfig, DurablePolicy};
use remedy_serve::{wal, Session};
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

/// A decoder under test: `true` when it accepted its input.
type Decode<T = str> = fn(&T) -> bool;

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
    let model = |kind: ModelKind| kind.fit(&data, 7).to_text();
    let predictions = classifiers::persist::from_text(&model(ModelKind::DecisionTree))
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
    let model_decode: Decode = decode_and_score;
    let _ = SCORED_ROWS.set(data.clone());
    vec![
        ("dataset", dataset_to_text(&data), |t| {
            dataset_from_text(t).is_ok()
        }),
        ("ibs", regions_to_text(&regions), |t| {
            regions_from_text(t).is_ok()
        }),
        ("counts", counts_to_text(&counts), decode_and_identify),
        ("dt", model(ModelKind::DecisionTree), model_decode),
        (
            "rf",
            SavedModel::RandomForest(forest).to_text(),
            model_decode,
        ),
        ("lg", model(ModelKind::LogisticRegression), model_decode),
        ("nn", model(ModelKind::NeuralNetwork), model_decode),
        ("nb", model(ModelKind::NaiveBayes), model_decode),
        ("metrics", summary.to_text(), |t| {
            MetricsSummary::from_text(t).is_ok()
        }),
    ]
}

/// The rows decoded models score: the fixture's own, set before any
/// decode runs so no decode allocates them.
static SCORED_ROWS: std::sync::OnceLock<remedy::dataset::Dataset> = std::sync::OnceLock::new();

/// Decodes a model and, when it decodes and fits the fixture's rows,
/// scores them: a model text carries no input layout, so the schema
/// check is what keeps a decoded model from reading past a row.
fn decode_and_score(text: &str) -> bool {
    let Ok(model) = classifiers::persist::from_text(text) else {
        return false;
    };
    let rows = SCORED_ROWS.get().expect("fixtures() sets the rows");
    if model.check_schema(rows.schema()).is_err() {
        return false;
    }
    model.predict(rows);
    true
}

/// Decodes shard counts and, when they decode, identifies over them with
/// both enumerations: a counts artifact carries its own column layout, so
/// nothing it decodes to may panic downstream either.
fn decode_and_identify(text: &str) -> bool {
    let Ok(counts) = counts_from_text(text) else {
        return false;
    };
    identify_both(&counts);
    true
}

/// Identifies over leaf counts with both enumerations, errors allowed.
fn identify_both(counts: &ShardCounts) {
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

/// Runs one decode under `catch_unwind` with the heap tracked: whether
/// it accepted its input (or the panic message) and the peak heap growth.
fn decode_guarded(decode: impl FnOnce() -> bool) -> (Result<bool, String>, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let outcome = catch_unwind(AssertUnwindSafe(decode));
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

/// What is wrong with a guarded decode of a `len`-byte input, if anything.
fn verdict(outcome: &Result<bool, String>, grown: usize, len: usize) -> Option<String> {
    match outcome {
        Err(message) => Some(format!("panicked: {message}")),
        Ok(_) if grown > heap_bound(len) => Some(format!(
            "grew the heap by {grown} bytes for a {len}-byte input"
        )),
        Ok(_) => None,
    }
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
            let (outcome, grown) = decode_guarded(|| decode(&mutant));
            accepted += usize::from(outcome == Ok(true));
            if let Some(verdict) = verdict(&outcome, grown, mutant.len()) {
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

/// A binary artifact under test: its decoder (`true` when it accepted
/// the bytes) and, for a digest-framed format, how a mutant's digests are
/// recomputed.
struct Binary {
    name: &'static str,
    bytes: Vec<u8>,
    decode: Decode<[u8]>,
    reseal: Option<fn(&mut [u8])>,
}

/// Valid artifacts of every binary format, from one small COMPAS fixture.
fn binary_fixtures() -> Vec<Binary> {
    let data = synth::compas_n(300, 7);
    let columnar = store::to_binary(&data);
    let packed = store::from_bytes(&columnar).unwrap().packed.unwrap();
    // the same store without its sidecar: header flag bit 0 cleared and
    // the trailing section (column count, per-column index and width,
    // then one key per row) cut off
    let mut bare = columnar.clone();
    let key_bytes = (packed.widths.iter().sum::<u32>() as usize).div_ceil(8);
    bare.truncate(columnar.len() - 4 - 8 * packed.cols.len() - key_bytes * data.len());
    bare[store::COLUMNAR.line().len() + 1] &= !1;
    let mut segment = format!("{}\n", wal::WAL.line()).into_bytes();
    for seq in 1..=24u64 {
        let row = seq as usize;
        let edits = [
            RowEdit::Duplicate { src: row },
            RowEdit::FlipLabel { row: 2 * row },
            RowEdit::Remove {
                rows: vec![row, 3 * row],
            },
        ];
        segment.extend_from_slice(&wal::encode_record(seq, &edits));
    }
    let mut snapshot = format!("{}\n", durable::SNAPSHOT.line()).into_bytes();
    for meta in [0u64; 3] {
        snapshot.extend_from_slice(&meta.to_le_bytes());
    }
    snapshot.extend_from_slice(&content_digest(&columnar).to_le_bytes());
    snapshot.extend_from_slice(&columnar);
    let stored: Decode<[u8]> = |b| store::from_bytes(b).map(open_and_identify).is_ok();
    vec![
        Binary {
            name: "columnar",
            bytes: columnar,
            decode: stored,
            reseal: None,
        },
        Binary {
            name: "columnar-bare",
            bytes: bare,
            decode: stored,
            reseal: None,
        },
        Binary {
            name: "wal",
            bytes: segment,
            decode: replay_and_ingest,
            reseal: Some(reseal_wal),
        },
        Binary {
            name: "snapshot",
            bytes: snapshot,
            decode: recover_and_identify,
            reseal: Some(reseal_snapshot),
        },
    ]
}

/// Opens a session over a decoded store and identifies with both
/// enumerations; a session that refuses the dataset is a typed error.
fn open_and_identify(stored: store::Stored) {
    if let Ok(session) = Session::try_open_stored(stored) {
        identify_both(session.index.counts());
    }
}

/// Replays a WAL segment and applies every record it yields to a fresh
/// session through `ingest_with`, then identifies; accepted when the
/// whole segment was read (a torn tail is a shorter prefix, not an error).
fn replay_and_ingest(bytes: &[u8]) -> bool {
    let Ok(replay) = wal::replay_bytes(bytes) else {
        return false;
    };
    let mut session = Session::try_open(synth::compas_n(300, 7)).unwrap();
    for record in &replay.records {
        let _ = session.ingest_with(&record.edits, &ObsScope::disabled());
    }
    identify_both(session.index.counts());
    replay.torn_bytes == 0
}

/// The data directory snapshot mutants are recovered from.
fn snapshot_root() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("remedy_decode_mutations_{}", std::process::id()))
}

/// Recovers a session from a data directory holding only this snapshot,
/// then identifies over it.
fn recover_and_identify(bytes: &[u8]) -> bool {
    let root = snapshot_root();
    let dir = root.join("s");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("snapshot-{:020}.bin", 0)), bytes).unwrap();
    let config = DurableConfig {
        root,
        policy: DurablePolicy::default(),
    };
    let recovered = durable::recover_session(&config, "s");
    recovered
        .map(|(session, _)| identify_both(session.index.counts()))
        .is_ok()
}

/// Recomputes the digest of every whole record frame of a WAL segment.
fn reseal_wal(bytes: &mut [u8]) {
    let mut digests = Vec::new();
    if let Ok(mut r) = Bytes::open(bytes, wal::WAL) {
        while let Ok(len) = r.u32() {
            let at = r.offset();
            let Ok(payload) = r.u128().and_then(|_| r.take(len as usize)) else {
                break;
            };
            digests.push((at, content_digest(payload)));
        }
    }
    for (at, digest) in digests {
        bytes[at..at + 16].copy_from_slice(&digest.to_le_bytes());
    }
}

/// Recomputes a snapshot's body digest.
fn reseal_snapshot(bytes: &mut [u8]) {
    // the digest follows the magic line and three u64 meta fields
    let at = durable::SNAPSHOT.line().len() + 1 + 3 * 8;
    if bytes.len() >= at + 16 {
        let digest = content_digest(&bytes[at + 16..]);
        bytes[at..at + 16].copy_from_slice(&digest.to_le_bytes());
    }
}

/// Applies one random mutation to binary bytes. Windows set to all ones
/// start in the first 256 bytes half the time, where the headers, schema
/// and frame fields sit, rather than in bulk column data.
fn mutate_bytes(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let len = out.len();
    if len == 0 {
        return out;
    }
    match rng.gen_range(0..4u32) {
        0 => {
            // small values half the time: codes, labels and flags stay
            // in range, so the mutant reaches the session behind
            let top: u8 = if rng.gen_bool(0.5) { 3 } else { 255 };
            out[rng.gen_range(0..len)] = rng.gen_range(0..=top);
        }
        1 => out.truncate(rng.gen_range(0..len)),
        2 => {
            let start = rng.gen_range(0..len);
            let end = (start + rng.gen_range(1..=64usize)).min(len);
            let at = rng.gen_range(0..=len);
            out.splice(at..at, bytes[start..end].iter().copied());
        }
        _ => {
            let width = if rng.gen_bool(0.5) { 4 } else { 8 };
            let head = if rng.gen_bool(0.5) { len.min(256) } else { len };
            let at = rng.gen_range(0..head);
            out[at..(at + width).min(len)].fill(0xff);
        }
    }
    out
}

#[test]
fn mutated_binary_artifacts_decode_without_panicking() {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(0xB1_DEC0);
    let mut failures = Vec::new();
    let (mut accepted, mut total) = (0, 0);
    for Binary {
        name,
        bytes,
        decode,
        reseal,
    } in binary_fixtures()
    {
        assert!(decode(&bytes), "{name}: the unmutated fixture must decode");
        for case in 0..MUTANTS {
            let mut mutant = mutate_bytes(&bytes, &mut rng);
            for _ in 0..rng.gen_range(0..3u32) {
                mutant = mutate_bytes(&mutant, &mut rng);
            }
            if let Some(reseal) = reseal.filter(|_| rng.gen_bool(0.5)) {
                reseal(&mut mutant);
            }
            let (outcome, grown) = decode_guarded(|| decode(&mutant));
            accepted += usize::from(outcome == Ok(true));
            if let Some(verdict) = verdict(&outcome, grown, mutant.len()) {
                let head: Vec<u8> = mutant.iter().copied().take(96).collect();
                failures.push(format!("{name} case {case}: {verdict}\n{head:02x?}"));
            }
            total += 1;
        }
    }
    let _ = std::fs::remove_dir_all(snapshot_root());
    assert!(failures.is_empty(), "{}", failures.join("\n---\n"));
    assert!(
        accepted < total / 2,
        "{accepted} of {total} mutants decoded"
    );
    let elapsed = start.elapsed();
    assert!(elapsed < TIME_BOUND, "took {elapsed:?}");
}

/// Hostile inputs found by hand: a tree whose split points past the node
/// list (an out-of-bounds index at prediction), one whose split is its
/// own child (a prediction that never returns), logistic-regression
/// offsets that leave a block past the weights (another out-of-bounds
/// index at prediction), well-formed models that read an attribute or a
/// code the rows they score lack (caught by the schema check), shard
/// counts whose leaf sum overflows `u64`, and shard counts with a leaf of
/// no rows (which overwrote a region's counts in the pruned lattice
/// builder).
#[test]
fn known_hostile_inputs_are_typed_errors() {
    let max = u64::MAX;
    let model: Decode = |t| classifiers::persist::from_text(t).is_ok();
    let counts: Decode = |t| counts_from_text(t).is_ok();
    fixtures(); // the rows `decode_and_score` scores
    for (decode, text) in [
        // decodes, but splits on attribute 7 of COMPAS rows
        (
            decode_and_score as Decode,
            "remedy-model v1\nkind decision-tree\nnodes 3\nsplit 7 0 1 2\nleaf 0\nleaf 1\n"
                .to_string(),
        ),
        // decodes, but lays out one one-hot block of one weight
        (
            decode_and_score,
            "remedy-model v1\nkind logistic-regression\nbias 0\noffsets 0\nweights 1\n"
                .to_string(),
        ),
        (model, "remedy-model v1\nkind decision-tree\nnodes 1\nsplit 0 0 5 5\n".to_string()),
        (model, "remedy-model v1\nkind decision-tree\nnodes 1\nsplit 0 0 0 0\n".to_string()),
        (
            model,
            "remedy-model v1\nkind logistic-regression\nbias 0\noffsets 0 1\nweights 1\n".to_string(),
        ),
        (
            model,
            "remedy-model v1\nkind logistic-regression\nbias 0\noffsets 0 5\nweights 1 2\n"
                .to_string(),
        ),
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
