//! E4 — the extensions beyond Table 2. The paper's §6 future work, a
//! decentralized asynchronous scheme, is not implemented: the ATS mode
//! runs CTS2's policy on the same round loop and reproduces CTS2 bit for
//! bit (`tests/policies.rs::ats_reproduces_cts2_bit_for_bit`), so it has no
//! column here. What remains is the §2 taxonomy's third parallelism source
//! (search-space decomposition, DTS), measured against CTS2 on the Table 2
//! instances at the same total budget.

use mkp::generate::mk_suite;
use mkp_bench::{mean, stddev, TextTable};
use parallel_tabu::{Engine, Mode, RunConfig};

const SEEDS: [u64; 5] = [42, 1337, 2024, 7, 99];
const BUDGET: u64 = 40_000_000;
const ROUNDS: usize = 16;
const P: usize = 4;

fn main() {
    println!("E4: CTS2 (cooperative master/slave) vs DTS (search-space decomposition)");
    println!(
        "(equal total budget {BUDGET}, {} seeds per mode; ATS = CTS2 bit for bit, not listed)\n",
        SEEDS.len()
    );

    let mut table = TextTable::new(vec!["Prob", "CTS2 mean", "sd", "DTS mean", "sd", "winner"]);
    let mut engine = Engine::new(P); // one warm pool for all modes x seeds
    for inst in mk_suite() {
        let mut run_all = |mode: Mode| -> Vec<f64> {
            SEEDS
                .iter()
                .map(|&seed| {
                    let cfg = RunConfig {
                        p: P,
                        rounds: ROUNDS,
                        ..RunConfig::new(BUDGET, seed)
                    };
                    engine
                        .run(&inst, mode, &cfg)
                        .expect("bench farm healthy")
                        .best
                        .value() as f64
                })
                .collect()
        };
        let cts2 = run_all(Mode::CooperativeAdaptive);
        let dts = run_all(Mode::Decomposed);
        let (mc, md) = (mean(&cts2), mean(&dts));
        let winner = if mc >= md { "CTS2" } else { "DTS" };
        table.row(vec![
            inst.name().to_string(),
            format!("{mc:.0}"),
            format!("{:.0}", stddev(&cts2)),
            format!("{md:.0}"),
            format!("{:.0}", stddev(&dts)),
            winner.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("DTS shows disjoint-region decomposition (§2's third source) trading");
    println!("cooperative focus for guaranteed coverage.");
}
