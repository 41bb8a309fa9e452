//! Seeded property tests for the cost-based planner over randomized
//! tables (sizes, skew, and probe keys drawn from a fixed-seed RNG, so
//! failures replay exactly):
//!
//! * **Cost ordering** — the access path `plan_access` chooses is never
//!   costlier (under the documented model) than any candidate it
//!   enumerated, and the choice is invariant under commutation of the
//!   equality predicates.
//! * **Join commutation** — the hash-join build side is always the
//!   smaller estimated input, whichever order the inputs are given in.
//! * **Stale degradation** — statistics invalidated by mutation drift
//!   degrade planning to the pre-statistics heuristic; they never turn
//!   into an error, and the rows a query returns are unaffected.

use perftrack_store::planner::{
    join_build_left, PlanSource, COST_FETCH_ROW, COST_PROBE, COST_SCAN_ROW,
};
use perftrack_store::prelude::*;
use perftrack_store::value::encode_key_vec;
use perftrack_workloads::Rng;

/// A two-column table with a unique `id` index and a skewed `grp`
/// index; row count and skew vary with the seed.
fn random_db(rng: &mut Rng) -> (Database, TableId, usize, i64) {
    let db = Database::in_memory();
    let t = db
        .create_table(
            "p",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("grp", ColumnType::Int),
            ],
        )
        .unwrap();
    db.create_index("p_id", t, &["id"], true).unwrap();
    db.create_index("p_grp", t, &["grp"], false).unwrap();
    let rows = rng.gen_range(1usize..400);
    let groups = rng.gen_range(1i64..20);
    let mut txn = db.begin();
    for i in 0..rows {
        txn.insert(
            t,
            vec![Value::Int(i as i64), Value::Int(rng.gen_range(0..groups))],
        )
        .unwrap();
    }
    txn.commit().unwrap();
    (db, t, rows, groups)
}

/// Cost of a plan choice under the documented model, recomputed
/// independently of the planner from the same statistics APIs.
fn choice_cost(db: &Database, choice: &PlanChoice) -> f64 {
    match choice.path {
        AccessPath::FullScan => choice.table_rows.unwrap() as f64 * COST_SCAN_ROW,
        AccessPath::IndexEq { index } => {
            let key = encode_key_vec(choice.key.as_ref().unwrap());
            COST_PROBE + db.index_eq_estimate(index, &key).unwrap() * COST_FETCH_ROW
        }
    }
}

#[test]
fn chosen_plan_cost_is_minimal_and_commutes() {
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0x9a77_0000 + seed);
        let (db, t, rows, groups) = random_db(&mut rng);
        db.analyze().unwrap();
        let id = rng.gen_range(0..rows as i64 + 5);
        let grp = rng.gen_range(0..groups + 2);
        let fwd = TableQuery::new(&db, t)
            .eq(0, Value::Int(id))
            .eq(1, Value::Int(grp))
            .plan_choice();
        let rev = TableQuery::new(&db, t)
            .eq(1, Value::Int(grp))
            .eq(0, Value::Int(id))
            .plan_choice();
        assert_eq!(fwd.source, PlanSource::Statistics, "seed {seed}: {fwd:?}");
        // Commutation: predicate order cannot change the decision.
        assert_eq!(fwd.path, rev.path, "seed {seed}");
        assert_eq!(fwd.estimated_rows, rev.estimated_rows, "seed {seed}");
        // Optimality: the chosen path costs no more than either
        // single-index candidate or the scan, under the same estimates.
        let chosen = choice_cost(&db, &fwd);
        let scan = rows as f64 * COST_SCAN_ROW;
        assert!(chosen <= scan + 1e-9, "seed {seed}: {chosen} > scan {scan}");
        for (index, key) in [
            (db.index_id("p_id").unwrap(), vec![Value::Int(id)]),
            (db.index_id("p_grp").unwrap(), vec![Value::Int(grp)]),
        ] {
            let est = db.index_eq_estimate(index, &encode_key_vec(&key)).unwrap();
            let candidate = COST_PROBE + est * COST_FETCH_ROW;
            assert!(
                chosen <= candidate + 1e-9,
                "seed {seed}: chose cost {chosen} over candidate cost {candidate}"
            );
        }
    }
}

#[test]
fn join_build_side_commutes_to_the_smaller_input() {
    let mut rng = Rng::seed_from_u64(0x9a77_1000);
    for _ in 0..256 {
        let l = rng.gen_range(0u64..10_000);
        let r = rng.gen_range(0u64..10_000);
        // Exactly one side is the build side (ties break left), and the
        // build side's estimate never exceeds the probe side's.
        if join_build_left(l, r) {
            assert!(l <= r, "built left with {l} > {r}");
        } else {
            assert!(r < l, "built right with {r} >= {l}");
        }
        if l != r {
            assert_ne!(join_build_left(l, r), join_build_left(r, l));
        }
    }
}

#[test]
fn stale_statistics_degrade_to_heuristic_never_error() {
    for seed in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0x9a77_2000 + seed);
        let (db, t, rows, groups) = random_db(&mut rng);
        db.analyze().unwrap();
        // Mutate well past the drift threshold (25% of analyzed rows).
        let extra = rows + rng.gen_range(64usize..128);
        let mut txn = db.begin();
        for i in 0..extra {
            txn.insert(
                t,
                vec![
                    Value::Int((rows + i) as i64),
                    Value::Int(rng.gen_range(0..groups)),
                ],
            )
            .unwrap();
        }
        txn.commit().unwrap();
        let grp = rng.gen_range(0..groups);
        let q = || TableQuery::new(&db, t).eq(1, Value::Int(grp));
        let choice = q().plan_choice();
        assert_eq!(
            choice.source,
            PlanSource::StaleFallback,
            "seed {seed}: {choice:?}"
        );
        // The fallback is the pre-statistics rule: a covered index probe.
        assert!(matches!(choice.path, AccessPath::IndexEq { .. }));
        // Execution under stale statistics returns exactly the rows a
        // forced scan does.
        let planned = q().run().unwrap();
        let scanned = q().force_scan().run().unwrap();
        assert_eq!(planned, scanned, "seed {seed}");
        assert!(db.planner_stats().stale_fallbacks.get() > 0);
        // Re-ANALYZE clears the drift and restores costed planning.
        db.analyze().unwrap();
        assert_eq!(q().plan_choice().source, PlanSource::Statistics);
    }
}
