//! Fig. 7(a,b) — scalability at 100 nodes under MNIST: Chiron's exterior
//! agent converges (≈300 episodes in the paper) while the DRL-based
//! baseline's reward stays flat (fails to improve).

use chiron::{Chiron, ChironConfig, Mechanism};
use chiron_baselines::DrlSingleRound;
use chiron_bench::{
    episodes_from_env, make_env, print_reward_digest, reward_curve_csv, write_csv,
    write_reward_chart,
};
use chiron_data::DatasetKind;
use chiron_tensor::pool;

fn main() {
    let episodes = episodes_from_env(500);
    let seed = 42;

    println!(
        "Fig. 7: training Chiron and DRL-based at 100 nodes (MNIST, η = 300), {episodes} episodes"
    );
    // The two trainings are independent (each owns its env), so they run
    // as one named region; output is printed after the join, in figure
    // order, and each curve is bitwise-identical to a sequential run.
    let mut chiron_rewards: Vec<f64> = Vec::new();
    let mut drl_rewards: Vec<f64> = Vec::new();
    let t0 = std::time::Instant::now();
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
        Box::new(|| {
            let mut env = make_env(DatasetKind::MnistLike, 100, 300.0, seed);
            let mut chiron = Chiron::new(&env, ChironConfig::paper(), seed);
            chiron_rewards = chiron.train(&mut env, episodes);
        }),
        Box::new(|| {
            let mut env = make_env(DatasetKind::MnistLike, 100, 300.0, seed);
            let mut drl = DrlSingleRound::new(&env, seed);
            drl_rewards = drl.train(&mut env, episodes);
        }),
    ];
    pool::run("bench.fig7_train", tasks);
    println!("trained both in {:.1?}", t0.elapsed());

    println!("\nFig. 7(a): Chiron at 100 nodes");
    print_reward_digest("chiron@100", &chiron_rewards);
    write_csv(
        "fig7a_chiron_convergence_100nodes.csv",
        &reward_curve_csv(&chiron_rewards, 20),
    );
    write_reward_chart(
        "fig7a_chiron_convergence_100nodes.svg",
        "Fig. 7(a) — Chiron at 100 nodes",
        &chiron_rewards,
        20,
    );

    println!("\nFig. 7(b): DRL-based at 100 nodes, same setting");
    print_reward_digest("drl-based@100", &drl_rewards);
    write_csv(
        "fig7b_drlbased_convergence_100nodes.csv",
        &reward_curve_csv(&drl_rewards, 20),
    );
    write_reward_chart(
        "fig7b_drlbased_convergence_100nodes.svg",
        "Fig. 7(b) — DRL-based at 100 nodes",
        &drl_rewards,
        20,
    );

    // Shape check: Chiron's curve rises; DRL-based's stays flat/oscillating.
    let rise = |r: &[f64]| {
        let d = (r.len() / 10).max(1);
        let first = r[..d].iter().sum::<f64>() / d as f64;
        let last = r[r.len() - d..].iter().sum::<f64>() / d as f64;
        (first, last)
    };
    let (cf, cl) = rise(&chiron_rewards);
    let (df, dl) = rise(&drl_rewards);
    println!(
        "\nshape check: chiron {cf:.2} → {cl:.2} ({}), drl-based {df:.2} → {dl:.2} ({})",
        if cl > cf { "rising ✓" } else { "flat ✗" },
        if (dl - df).abs() / df.abs().max(1e-9) < 0.10 {
            "flat / not converging ✓"
        } else {
            "moving"
        }
    );
}
