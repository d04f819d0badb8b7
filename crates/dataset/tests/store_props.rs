//! Randomized property tests for the binary columnar store, driven by a
//! seeded [`SplitRng`] loop (the build environment is offline, so no
//! external property-testing framework). Failures print the case index
//! so a case can be replayed by seed.
//!
//! The store's contract is *exactness*: text → binary → text must be
//! byte-identical for every dataset, including schemas with non-ASCII
//! names, so `.remedy-cache` keys computed over canonical text survive a
//! format conversion unchanged.

use remedy_dataset::error::DatasetError;
use remedy_dataset::persist::{dataset_from_text, dataset_to_text};
use remedy_dataset::split::SplitRng;
use remedy_dataset::{store, synth, Attribute, Dataset, Schema};

/// Name fragments covering the escaping edge cases: ASCII, percent,
/// whitespace, and multi-byte UTF-8 (2-, 3-byte sequences).
const NAME_PARTS: &[&str] = &["a", "Z9", "é", "ß", "東京", "%", " ", "_", "100%"];

fn arb_name(rng: &mut SplitRng, tag: usize) -> String {
    let mut name = format!("n{tag}");
    for _ in 0..=rng.below(3) {
        name.push_str(NAME_PARTS[rng.below(NAME_PARTS.len())]);
    }
    name
}

/// A random categorical dataset: 1–6 attributes of cardinality 2–9,
/// each protected with probability ½, rows with non-trivial weights.
fn arb_dataset(rng: &mut SplitRng) -> Dataset {
    let n_attrs = 1 + rng.below(6);
    let attrs: Vec<Attribute> = (0..n_attrs)
        .map(|i| {
            let card = 2 + rng.below(8);
            let values: Vec<String> = (0..card).map(|v| arb_name(rng, v)).collect();
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            let mut attr = Attribute::from_strs(&arb_name(rng, i), &refs);
            if rng.below(2) == 0 {
                attr = attr.protected();
            }
            if rng.below(3) == 0 {
                attr = attr.ordered();
            }
            attr
        })
        .collect();
    let cards: Vec<usize> = attrs.iter().map(|a| a.cardinality()).collect();
    let schema = Schema::new(attrs, arb_name(rng, 99)).into_shared();
    let mut data = Dataset::new(schema);
    let weights = [1.0, 0.25, 3.5, 1e-9, 1e12, 0.1];
    for _ in 0..rng.below(40) {
        let row: Vec<u32> = cards.iter().map(|&c| rng.below(c) as u32).collect();
        let label = rng.below(2) as u8;
        let weight = weights[rng.below(weights.len())];
        data.push_row_weighted(&row, label, weight).unwrap();
    }
    data
}

/// Every built-in generator round-trips text → binary → text with
/// byte-identical canonical text, equal datasets, and a header digest
/// matching the text (`binary_to_text` checks it).
#[test]
fn builtin_datasets_roundtrip_byte_identically() {
    type Generator = fn(usize, u64) -> Dataset;
    let builtins: [(&str, Generator); 3] = [
        ("adult", synth::adult_n),
        ("compas", synth::compas_n),
        ("law", synth::law_school_n),
    ];
    for (name, make) in builtins {
        for seed in [1, 11, 42] {
            let data = make(500, seed);
            let text = dataset_to_text(&data);
            let bytes = store::to_binary(&data);
            let stored = store::from_binary(&bytes).unwrap();
            assert_eq!(stored.data, data, "{name} seed {seed}: dataset drifted");
            let back = dataset_to_text(&stored.data);
            assert_eq!(text, back, "{name} seed {seed}: text not byte-identical");
            assert_eq!(
                store::binary_to_text(&bytes).map(|c| c.text).as_ref(),
                Ok(&text),
                "{name} seed {seed}: header digest diverges from canonical text"
            );
            let packed = stored.packed.expect("builtins pack within dense limits");
            assert_eq!(packed.keys.len(), data.len());
        }
    }
}

/// Wide protected sets past the 16-attribute dense ceiling round-trip
/// too, with minimal-width packed keys preserved.
#[test]
fn wide_datasets_roundtrip_past_dense_ceiling() {
    for (arity, seed) in [(17, 5), (20, 9), (24, 1)] {
        let data = synth::wide_n(300, arity, seed);
        let text = dataset_to_text(&data);
        let stored = store::from_binary(&store::to_binary(&data)).unwrap();
        assert_eq!(stored.data, data);
        assert_eq!(dataset_to_text(&stored.data), text);
        let packed = stored.packed.expect("wide packs with minimal widths");
        assert_eq!(packed.cols.len(), arity);
        assert!(packed.widths.iter().all(|&w| w < 8));
    }
}

/// Seeded random schemas — non-ASCII names, odd weights, mixed
/// protected/ordered flags — survive text → binary → text and
/// binary → text → binary with full equality.
#[test]
fn random_schemas_roundtrip_through_both_encodings() {
    for case in 0..80u64 {
        let mut rng = SplitRng::new(case + 1);
        let data = arb_dataset(&mut rng);
        let text = dataset_to_text(&data);
        assert!(text.is_ascii(), "case {case}: artifact text must be ASCII");

        // text → dataset → binary → dataset → text
        let parsed = dataset_from_text(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        let bytes = store::to_binary(&parsed);
        let stored = store::from_binary(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(stored.data, data, "case {case}: dataset drifted");
        assert_eq!(
            dataset_to_text(&stored.data),
            text,
            "case {case}: canonical text not byte-identical after conversion"
        );
        assert_eq!(
            store::binary_to_text(&bytes).map(|c| c.text).as_ref(),
            Ok(&text)
        );

        // binary is deterministic: re-encoding the decoded dataset gives
        // the same bytes
        assert_eq!(
            store::to_binary(&stored.data),
            store::to_binary(&data),
            "case {case}: binary encoding is not deterministic"
        );
    }
}

/// Flipping any byte ahead of the packed-key sidecar makes the canonical
/// text decode (`binary_to_text`, the pipeline load stage's decoder) fail
/// with a typed `Decode`/`Invalid` error: either a section fails to
/// decode or the text no longer matches the digest pinned in the header
/// — corruption can never silently replay a cache.
#[test]
fn single_byte_corruption_is_never_silent() {
    let data = synth::compas_n(60, 7);
    let bytes = store::to_binary(&data);
    let stored = store::from_binary(&bytes).unwrap();
    let packed = stored.packed.as_ref().unwrap();
    // the packed sidecar trails the file: cols u32 + per-col (index,
    // width) u32 pairs + rows × ⌈Σwidths/8⌉-byte keys
    let key_bytes = (packed.widths.iter().sum::<u32>() as usize).div_ceil(8);
    let sidecar = 4 + packed.cols.len() * 8 + packed.keys.len() * key_bytes;
    let guarded = bytes.len() - sidecar;
    let mut rng = SplitRng::new(0xC0DE);
    for case in 0..200 {
        let at = rng.below(guarded);
        let mask = 1u8 << rng.below(8);
        let mut mutated = bytes.clone();
        mutated[at] ^= mask;
        match store::binary_to_text(&mutated) {
            Err(DatasetError::Decode(_)) | Err(DatasetError::Invalid(_)) => {}
            Err(e) => panic!("case {case} (byte {at}): untyped error {e}"),
            Ok(_) => panic!("case {case}: flipped byte {at} decoded silently"),
        }
    }
}
