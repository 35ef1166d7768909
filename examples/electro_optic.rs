//! Electro-optic activation study: swap modReLU for the Williamson-style
//! electro-optic nonlinearity and train the resulting chip black-box with
//! ZO-LCNG.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example electro_optic
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::core::{
    evaluate_chip, ClassificationHead, Method, ModelChoice, TextTable, TrainConfig, Trainer,
};
use photon_zo::data::GaussianClusters;
use photon_zo::exec::ExecPool;
use photon_zo::photonics::{Architecture, ErrorModel, FabricatedChip};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 41;
    let k = 8;
    println!("electro-optic vs modReLU activation, K={k} cluster task (seed {seed})\n");

    let mut table = TextTable::new(&["activation", "params", "test acc", "test loss"]);
    let architectures = [
        ("modReLU", Architecture::two_mesh_classifier(k, k)?),
        (
            "EO (α=0.1, g=1.0)",
            Architecture::two_mesh_eo_classifier(k, k, 0.1, 1.0)?,
        ),
    ];
    for (label, arch) in architectures {
        let mut rng = StdRng::seed_from_u64(seed);
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let data = GaussianClusters::new(k, 4, 0.15).generate(360, &mut rng)?;
        let (train, test) = data.split(2.0 / 3.0, &mut rng);
        let head = ClassificationHead::new(k, 4, 10.0)?;
        let trainer =
            Trainer::new(&chip, &train, &test, head).with_calibrated_model(chip.oracle_network());

        let mut config = TrainConfig::quick(k);
        config.epochs = 15;
        let theta0 = trainer.warm_start(&config, &mut rng);
        let warm = evaluate_chip(&chip, &test, trainer.head(), &theta0, &ExecPool::from_env());
        let mut theta = theta0;
        let out = trainer.finetune(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut theta,
            &mut rng,
        )?;
        println!(
            "  {label}: warm-start acc {:.1}% → LCNG acc {:.1}%",
            100.0 * warm.accuracy,
            100.0 * out.final_eval.accuracy
        );
        table.row_owned(vec![
            label.to_string(),
            format!("{}", chip.param_count()),
            format!("{:.1}%", 100.0 * out.final_eval.accuracy),
            format!("{:.4}", out.final_eval.loss),
        ]);
    }
    println!("\n{}", table.render());
    println!("Both activations train through the same black-box pipeline — the");
    println!("module abstraction carries exact JVP/VJP for each, so LCNG's Fisher");
    println!("metric is available regardless of the nonlinearity on the chip.");
    Ok(())
}
