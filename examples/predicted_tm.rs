//! Predicted traffic matrices: route on a *forecast* and measure the MLU
//! on the matrix that actually arrives (§5.7). Compares the three TM
//! predictors and shows how an LP that optimizes the forecast exactly
//! ("Gurobi-Pred") performs on the true matrix.
//!
//! ```sh
//! cargo run --release --example predicted_tm
//! ```

use harp::models::{norm_mlu, Instance};
use harp::opt::MluOracle;
use harp::paths::TunnelSet;
use harp::topology::Topology;
use harp::traffic::predict::{ExpSmooth, LinReg, MovAvg, Predictor};
use harp::traffic::{gravity_series, GravityConfig};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // a ring-with-chords WAN and a diurnal traffic series
    let mut topo = Topology::new(8);
    for i in 0..8 {
        topo.add_link(i, (i + 1) % 8, 100.0).unwrap();
    }
    topo.add_link(0, 4, 80.0).unwrap();
    topo.add_link(2, 6, 80.0).unwrap();
    let tunnels = TunnelSet::k_shortest(&topo, &(0..8).collect::<Vec<_>>(), 3, 0.0);

    let mut cfg = GravityConfig::uniform(8, 400.0);
    cfg.diurnal_period = 24;
    cfg.noise_sigma = 0.12;
    let mut rng = StdRng::seed_from_u64(11);
    let tms = gravity_series(&cfg, &mut rng, 48);

    let oracle = MluOracle::default();
    let predictors: Vec<Box<dyn Predictor>> = vec![
        Box::new(MovAvg { window: 12 }),
        Box::new(ExpSmooth { alpha: 0.5 }),
        Box::new(LinReg { window: 12 }),
    ];

    println!("routing on forecasts, measuring on reality (LP-Pred = optimal for forecast):");
    println!(
        "  {:<12} {:>12} {:>16} {:>14}",
        "predictor", "TM error", "median NormMLU", "p90 NormMLU"
    );
    for p in &predictors {
        let mut nms = Vec::new();
        let mut errs = Vec::new();
        for t in 13..tms.len() {
            let history = &tms[t - 12..t];
            let predicted = p.predict(history);
            errs.push(tms[t].mean_relative_error(&predicted, 1e-9));

            // optimal routing for the forecast, applied to the real matrix
            let inst_pred = Instance::compile(&topo, &tunnels, &predicted);
            let pred_routing = oracle.solve(&inst_pred.program);
            let inst_true = Instance::compile(&topo, &tunnels, &tms[t]);
            let realized = inst_true.program.mlu(&pred_routing.splits);
            let best = oracle.solve(&inst_true.program).mlu;
            nms.push(norm_mlu(realized, best));
        }
        println!(
            "  {:<12} {:>11.1}% {:>16.3} {:>14.3}",
            p.name(),
            100.0 * errs.iter().sum::<f64>() / errs.len() as f64,
            harp::models::percentile(&nms, 50.0).expect("non-empty window"),
            harp::models::percentile(&nms, 90.0).expect("non-empty window"),
        );
    }
    println!(
        "\n(The paper's HARP-Pred closes most of this gap by *learning* to be\n\
         robust to forecast error — see `cargo run -p harp-bench --bin repro -- fig12`.)"
    );
}
