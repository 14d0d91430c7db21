//! Pins the paper's accuracy table at test scale.
//!
//! Recomputes RA, EA, PA and CA (λ = [`PAPER_LAMBDA`]) for the six C2MN
//! structural variants and the four non-C2MN baselines on seeded
//! `small_office` and `mall` datasets, and compares the rendered table
//! byte for byte with the committed `ACCURACY.json` at the repository
//! root. Training and decoding are deterministic per seed for any thread
//! count, so any change to a number is a behaviour change: the commit that
//! moves one regenerates the file from the JSON this test prints and
//! explains the move.
//!
//! The paper's orderings are stored per venue as booleans and asserted
//! one by one, so a flip names the ordering. They record what holds at
//! this scale, not what the paper reports: a `false` is a finding, not a
//! failure.

use ism_bench::{
    all_methods, evaluate_accuracy, mall_dataset, train_c2mn_family, Scale, C2MN_VARIANTS,
};
use ism_c2mn::C2mnConfig;
use ism_eval::{LabelAccuracy, PAPER_LAMBDA};
use ism_indoor::{BuildingGenerator, IndoorSpace};
use ism_mobility::{Dataset, PositioningConfig, SimulationConfig};
use ism_runtime::WorkerPool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;

/// Objects simulated per venue: small enough for a debug test run.
const OBJECTS: usize = 10;

/// The orderings the paper reports, as `(key, description)`.
const ORDERINGS: [(&str, &str); 3] = [
    ("full_ge_cmn_pa", "C2MN >= CMN on PA"),
    ("full_ge_cmn_ca", "C2MN >= CMN on CA"),
    (
        "best_c2mn_gt_best_baseline_ca",
        "best C2MN variant > best baseline on CA",
    ),
];

struct VenueTable {
    venue: &'static str,
    train_sequences: usize,
    test_sequences: usize,
    test_records: usize,
    /// `(method, accuracy)` in `all_methods` order: baselines first.
    methods: Vec<(&'static str, LabelAccuracy)>,
    /// One boolean per entry of [`ORDERINGS`], in that order.
    orderings: [bool; 3],
}

fn small_office() -> (IndoorSpace, Dataset) {
    let mut rng = StdRng::seed_from_u64(1);
    let space = BuildingGenerator::small_office()
        .generate(&mut rng)
        .expect("small_office generates");
    let dataset = Dataset::generate(
        "small_office",
        &space,
        SimulationConfig::quick(),
        PositioningConfig::synthetic(8.0, 1.5),
        None,
        OBJECTS,
        &mut rng,
    );
    (space, dataset)
}

fn mall() -> (IndoorSpace, Dataset) {
    // `mall_dataset` reads only `objects`.
    let scale = Scale {
        objects: OBJECTS,
        mcmc_m: 0,
        max_iter: 0,
        k: 0,
        threads: 1,
        shards: 1,
    };
    mall_dataset(&scale, 1)
}

/// Trains and evaluates every method on one venue, with the seeds the
/// `exp_table4` binary uses: split 2, training 3, evaluation 4.
fn venue_table(venue: &'static str, space: &IndoorSpace, dataset: &Dataset) -> VenueTable {
    let pool = WorkerPool::new(2);
    let mut rng = StdRng::seed_from_u64(2);
    let (train, test) = dataset.split(0.7, &mut rng);
    let family = train_c2mn_family(
        space,
        &train,
        &C2mnConfig::quick_test(),
        &C2MN_VARIANTS,
        3,
        &pool,
    );
    let methods: Vec<(&'static str, LabelAccuracy)> =
        all_methods(space, &train, &family, pool.threads())
            .iter()
            .map(|m| (m.name, evaluate_accuracy(m, &test, 4)))
            .collect();

    let accuracy = |name: &str| {
        methods
            .iter()
            .find(|(m, _)| *m == name)
            .map(|(_, acc)| *acc)
            .expect("method present")
    };
    let ca = |acc: &LabelAccuracy| acc.combined(PAPER_LAMBDA);
    let is_c2mn = |name: &str| C2MN_VARIANTS.iter().any(|(v, _)| *v == name);
    let best_ca = |c2mn: bool| {
        methods
            .iter()
            .filter(|(m, _)| is_c2mn(m) == c2mn)
            .map(|(_, acc)| ca(acc))
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let (full, cmn) = (accuracy("C2MN"), accuracy("CMN"));
    VenueTable {
        venue,
        train_sequences: train.len(),
        test_sequences: test.len(),
        test_records: methods[0].1.total,
        orderings: [
            full.perfect >= cmn.perfect,
            ca(&full) >= ca(&cmn),
            best_ca(true) > best_ca(false),
        ],
        methods,
    }
}

/// Renders the tables as `ACCURACY.json`. Floats print in Rust's
/// shortest round-trip form, so equal text means equal bits.
fn render(tables: &[VenueTable]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"lambda\": {},", PAPER_LAMBDA);
    let _ = writeln!(out, "  \"objects_per_venue\": {},", OBJECTS);
    let _ = writeln!(out, "  \"venues\": [");
    for (v, t) in tables.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"venue\": \"{}\",", t.venue);
        let _ = writeln!(out, "      \"train_sequences\": {},", t.train_sequences);
        let _ = writeln!(out, "      \"test_sequences\": {},", t.test_sequences);
        let _ = writeln!(out, "      \"test_records\": {},", t.test_records);
        let _ = writeln!(out, "      \"methods\": [");
        for (i, (name, acc)) in t.methods.iter().enumerate() {
            let comma = if i + 1 < t.methods.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "        {{\"method\": \"{}\", \"ra\": {}, \"ea\": {}, \"pa\": {}, \"ca\": {}}}{}",
                name,
                acc.region,
                acc.event,
                acc.perfect,
                acc.combined(PAPER_LAMBDA),
                comma
            );
        }
        let _ = writeln!(out, "      ],");
        let _ = writeln!(out, "      \"orderings\": {{");
        for (i, ((key, _), holds)) in ORDERINGS.iter().zip(t.orderings).enumerate() {
            let comma = if i + 1 < ORDERINGS.len() { "," } else { "" };
            let _ = writeln!(out, "        \"{key}\": {holds}{comma}");
        }
        let _ = writeln!(out, "      }}");
        let comma = if v + 1 < tables.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// The boolean stored for ordering `key` under `venue` in the committed
/// file, or `None` if the file does not hold one.
fn stored_ordering(committed: &str, venue: &str, key: &str) -> Option<bool> {
    let block = committed.split("\"venue\": ").find(|block| {
        block
            .strip_prefix('"')
            .is_some_and(|rest| rest.starts_with(&format!("{venue}\"")))
    })?;
    let value = block.split(&format!("\"{key}\": ")).nth(1)?;
    if value.starts_with("true") {
        Some(true)
    } else if value.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

#[test]
fn accuracy_table_matches_committed_record() {
    let (office_space, office_data) = small_office();
    let (mall_space, mall_data) = mall();
    let tables = [
        venue_table("small_office", &office_space, &office_data),
        venue_table("mall", &mall_space, &mall_data),
    ];
    let rendered = render(&tables);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ACCURACY.json");
    let committed = std::fs::read_to_string(path).unwrap_or_default();
    if rendered != committed {
        eprintln!("recomputed ACCURACY.json:\n{rendered}");
    }

    for t in &tables {
        for ((key, description), holds) in ORDERINGS.iter().zip(t.orderings) {
            assert_eq!(
                Some(holds),
                stored_ordering(&committed, t.venue, key),
                "{}: `{description}` now {holds}, committed {:?}",
                t.venue,
                stored_ordering(&committed, t.venue, key),
            );
        }
    }
    assert!(
        rendered == committed,
        "the accuracy table differs from {path}; the recomputed JSON is printed above"
    );
}
