//! MemSE analytic-vs-Monte-Carlo benchmark (EXPERIMENTS §K).
//!
//! Sections:
//!
//! 1. **Validation** — per (hardware config, encoding) cell, the
//!    analytic fluctuating logit MSE of [`MemseNetwork`] must land
//!    inside the paired-Monte-Carlo confidence band measured on the
//!    deployed [`DeviceVgg`] (paired runs cancel persistent error, so
//!    the fluctuating walk is the comparable quantity).
//! 2. **Search speedup** — wall clock of the Monte-Carlo GBO λ-search
//!    (Eq. 5/6, Adam over epochs; [`GboTrainer::search`]) vs the
//!    analytic search ([`GboTrainer::search_analytic`]: one-time capture
//!    + coordinate descent).
//! 3. **Fidelity** — both selections evaluated with the functional
//!    noise model; accuracies must agree within 0.5 pp.
//! 4. **Per-tile allocation** — refine the uniform selection per column
//!    tile group ([`MemseNetwork::tile_allocation`]) and report the
//!    energy/latency headroom.
//! 5. **Reconfiguration** — swap encodings on the live deployment
//!    between batches ([`DeviceVgg::reconfigure_encoding`]) and check
//!    the swap is fast and bitwise deterministic.
//!
//! Options (besides the shared bench flags): `--smoke` — tiny probe,
//! fewer repeats, one MC epoch: a CI-speed run with relaxed (but still
//! asserted) thresholds. Writes `results/BENCH_memse.json`.

use std::error::Error;
use std::io::Write;
use std::time::Instant;

use membit_bench::{gbo_epochs, results_dir, Cli};
use membit_core::{
    DeploymentPolicy, DeviceEvalConfig, DeviceVgg, GboConfig, GboTrainer, MemseNetwork,
};
use membit_tensor::{Rng, RngStream, Tensor};
use membit_xbar::XbarConfig;

struct ValidationCell {
    config: &'static str,
    pulses: usize,
    analytic: f64,
    mc_mean: f64,
    mc_se: f64,
    band: f64,
    within: bool,
}

fn main() -> Result<(), Box<dyn Error>> {
    let cli = Cli::parse();
    let smoke = cli.rest.iter().any(|a| a == "--smoke");
    let mut exp = membit_bench::setup_experiment(&cli)?;

    let sigma_paper = cli.f32_opt("--sigma").unwrap_or(15.0);
    let sigma_abs = exp.calibration().sigma_abs(sigma_paper);
    let sigma_mean = sigma_abs.iter().sum::<f32>() / sigma_abs.len() as f32;
    let gamma = cli.f32_opt("--gamma").unwrap_or(1e-3);
    let layers = exp.model().0.crossbar_layers();

    // probe batch: the analytic walk is exact in these samples, so a
    // handful of images pins the MSE surface
    let probe_n = if smoke { 2 } else { 4 };
    let probe = {
        let (batch, _) = exp.test_set().batch(0, probe_n)?;
        Tensor::from_vec(batch.as_slice().to_vec(), batch.shape())?
    };
    // the λ-search runs on a two-sample probe: the closed-form walk is
    // exact in its probe, so the selection stabilizes with far fewer
    // samples than an MC estimate would need — and the device-eval
    // fidelity gate (section 3) validates the resulting encoding on the
    // full test set, independently of probe size
    let search_probe = {
        let (batch, _) = exp.test_set().batch(0, 2)?;
        Tensor::from_vec(batch.as_slice().to_vec(), batch.shape())?
    };

    // ------------------------------------------------------------------
    // Section 1: analytic vs paired-MC validation on deployed devices
    // ------------------------------------------------------------------
    let repeats = if smoke { 8 } else { 24 };
    let pulse_grid: &[usize] = if smoke { &[4, 16] } else { &[4, 8, 16] };
    let z = 4.0f64;
    let eps_rel = 0.3f64;
    println!(
        "validation: analytic fluct MSE vs paired MC ({repeats} runs, {} pairs, probe {probe_n})",
        repeats / 2
    );
    println!(
        "{:<26} {:>7} {:>12} {:>12} {:>10} {:>10} {:>7}",
        "hardware", "pulses", "analytic", "MC mean", "MC SE", "band", "pass"
    );
    let mut cells: Vec<ValidationCell> = Vec::new();
    let configs: [(&'static str, XbarConfig); 2] = [
        ("functional", XbarConfig::functional(sigma_mean)),
        ("realistic (ADC+variation)", XbarConfig::realistic(sigma_mean)),
    ];
    let (vgg_ref, params_ref) = exp.model();
    for (config_name, base) in configs {
        let mut xbar = base;
        xbar.exec = cli.exec_options();
        let mut rng = Rng::from_seed(cli.seed).stream(RngStream::Device);
        let mut device = DeviceVgg::deploy(
            vgg_ref,
            params_ref,
            &DeviceEvalConfig {
                xbar,
                pulses: vec![8; layers],
                act_levels: 9,
                policy: DeploymentPolicy::default(),
            },
            &mut rng,
        )?;
        let net = MemseNetwork::from_device(&device, &probe)?;
        for &q in pulse_grid {
            let pulses = vec![q; layers];
            // the fast-path hook under test: swap encodings in place
            device.reconfigure_encoding(&pulses)?;
            let analytic = f64::from(net.score(&pulses)?.fluct_mse);
            // paired MC: E‖y_a − y_b‖²/2 over disjoint run pairs
            let mut runs: Vec<Vec<f32>> = Vec::with_capacity(repeats);
            for _ in 0..repeats {
                let (y, _) = device.forward(&probe, &mut rng)?;
                runs.push(y.as_slice().to_vec());
            }
            let pair_estimates: Vec<f64> = runs
                .chunks_exact(2)
                .map(|pair| {
                    let d2: f64 = pair[0]
                        .iter()
                        .zip(&pair[1])
                        .map(|(a, b)| f64::from(a - b) * f64::from(a - b))
                        .sum();
                    d2 / 2.0 / probe_n as f64
                })
                .collect();
            let npairs = pair_estimates.len() as f64;
            let mc_mean = pair_estimates.iter().sum::<f64>() / npairs;
            let mc_var = pair_estimates
                .iter()
                .map(|e| (e - mc_mean) * (e - mc_mean))
                .sum::<f64>()
                / (npairs - 1.0);
            let mc_se = (mc_var / npairs).sqrt();
            // band: sampling noise or the walk's moment-approximation
            // tolerance, whichever dominates
            let band = (z * mc_se).max(eps_rel * mc_mean);
            let within = (analytic - mc_mean).abs() <= band;
            println!(
                "{config_name:<26} {q:>7} {analytic:>12.5} {mc_mean:>12.5} {mc_se:>10.5} \
                 {band:>10.5} {:>7}",
                if within { "yes" } else { "NO" }
            );
            cells.push(ValidationCell {
                config: config_name,
                pulses: q,
                analytic,
                mc_mean,
                mc_se,
                band,
                within,
            });
        }
    }
    let all_within = cells.iter().all(|c| c.within);
    assert!(
        all_within,
        "analytic MSE left the MC confidence band on at least one cell"
    );

    // ------------------------------------------------------------------
    // Section 2: λ-search speedup (MC Adam epochs vs analytic descent)
    // ------------------------------------------------------------------
    let train = exp.train_set().clone();
    let calibration = exp.calibration().clone();
    let mut cfg = GboConfig::paper(gamma, cli.seed);
    cfg.epochs = if smoke { 1 } else { gbo_epochs(cli.scale) };
    let (mc_result, mc_secs, an_result, capture_secs, an_search_secs, an_evals) = {
        let (vgg, params) = exp.model_mut();
        let mut mc_trainer = GboTrainer::new(layers, cfg.clone())?;
        let t = Instant::now();
        let mc_result = mc_trainer.search(vgg, params, &train, &calibration, sigma_paper)?;
        let mc_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let net = MemseNetwork::from_vgg(vgg, params, &search_probe, &sigma_abs)?;
        let capture_secs = t.elapsed().as_secs_f64();
        let sel = net.analytic_search(&cfg.pulse_lengths(), gamma)?;
        let mut an_trainer = GboTrainer::new(layers, cfg.clone())?;
        let t = Instant::now();
        let an_result = an_trainer.search_analytic(&net)?;
        let an_search_secs = t.elapsed().as_secs_f64();
        assert_eq!(
            an_result.selected_pulses, sel.pulses,
            "trainer plumbing must reproduce the raw analytic selection"
        );
        (
            mc_result,
            mc_secs,
            an_result,
            capture_secs,
            an_search_secs,
            sel.evaluations,
        )
    };
    let an_total_secs = capture_secs + an_search_secs;
    let speedup = mc_secs / an_total_secs;
    let speedup_floor = if smoke { 10.0 } else { 100.0 };
    println!();
    println!(
        "search speedup: MC {mc_secs:.2}s ({} epochs) vs analytic {an_total_secs:.3}s \
         (capture {capture_secs:.3}s + {an_evals} closed-form sweeps {an_search_secs:.3}s) \
         = {speedup:.0}x",
        cfg.epochs
    );
    println!("  MC selection:       {:?}", mc_result.selected_pulses);
    println!("  analytic selection: {:?}", an_result.selected_pulses);
    assert!(
        speedup >= speedup_floor,
        "analytic search must be ≥{speedup_floor}x faster (got {speedup:.1}x)"
    );

    // ------------------------------------------------------------------
    // Section 3: fidelity of the selected encodings
    // ------------------------------------------------------------------
    let acc_mc = exp.eval_pla(sigma_paper, &mc_result.selected_pulses)?;
    let acc_an = exp.eval_pla(sigma_paper, &an_result.selected_pulses)?;
    // Signed gap: positive means the analytic selection *lost* accuracy
    // relative to the MC selection. An analytic pick that beats MC (negative
    // gap) satisfies the acceptance criterion — the scorer must not degrade
    // the search, not match MC's sampling noise.
    let fidelity_gap = acc_mc - acc_an;
    let fidelity_floor = if smoke { 2.0 } else { 0.5 };
    println!();
    println!(
        "fidelity at σ = {sigma_paper}: MC-scored {acc_mc:.2}% (avg {:.2} pulses) vs \
         analytic-scored {acc_an:.2}% (avg {:.2} pulses), gap {fidelity_gap:+.2} pp",
        mc_result.avg_pulses(),
        an_result.avg_pulses()
    );
    assert!(
        fidelity_gap <= fidelity_floor,
        "analytic selection must not trail MC by more than {fidelity_floor} pp \
         (got {fidelity_gap:+.2})"
    );

    // ------------------------------------------------------------------
    // Section 4: per-tile pulse allocation (new search mode)
    // ------------------------------------------------------------------
    let (vgg_ref, params_ref) = exp.model();
    let mut tile_xbar = XbarConfig::realistic(sigma_mean);
    tile_xbar.tile_cols = 64; // narrower column tiles ⇒ real per-tile choice
    tile_xbar.exec = cli.exec_options();
    let mut rng = Rng::from_seed(cli.seed ^ 0x7135).stream(RngStream::Device);
    let tile_device = DeviceVgg::deploy(
        vgg_ref,
        params_ref,
        &DeviceEvalConfig {
            xbar: tile_xbar,
            pulses: vec![8; layers],
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        },
        &mut rng,
    )?;
    let tile_net = MemseNetwork::from_device(&tile_device, &probe)?;
    let candidates: Vec<usize> = if smoke {
        vec![4, 8, 16]
    } else {
        cfg.pulse_lengths()
    };
    let uniform = tile_net.analytic_search(&candidates, gamma)?;
    let tiled = tile_net.tile_allocation(&candidates, gamma)?;
    let uniform_energy: f32 = uniform.pulses.iter().sum::<usize>() as f32;
    let uniform_latency: usize = uniform.pulses.iter().sum();
    println!();
    println!(
        "per-tile allocation over {:?} column groups (64-wide tiles):",
        tile_net.column_groups()
    );
    println!(
        "  uniform:  pulses {:?}, mse {:.5}, energy {uniform_energy:.1}, latency {uniform_latency}",
        uniform.pulses, uniform.mse
    );
    println!(
        "  per-tile: pulses {:?}, mse {:.5}, energy {:.1}, latency {}",
        tiled.pulses, tiled.mse, tiled.energy, tiled.latency
    );
    assert!(
        tiled.objective <= uniform.objective + 1e-6,
        "per-group refinement must not regress the uniform objective"
    );

    // ------------------------------------------------------------------
    // Section 5: live encoding reconfiguration between batches
    // ------------------------------------------------------------------
    let enc_a = an_result.selected_pulses.clone();
    let enc_b = vec![16usize; layers];
    let swaps = if smoke { 6 } else { 20 };
    let run_session = |seed: u64| -> Result<(Vec<u32>, f64), Box<dyn Error>> {
        let mut xbar = XbarConfig::functional(sigma_mean);
        xbar.exec = cli.exec_options();
        let mut rng = Rng::from_seed(seed).stream(RngStream::Device);
        let mut device = DeviceVgg::deploy(
            vgg_ref,
            params_ref,
            &DeviceEvalConfig {
                xbar,
                pulses: enc_a.clone(),
                act_levels: 9,
                policy: DeploymentPolicy::default(),
            },
            &mut rng,
        )?;
        let mut bits = Vec::new();
        let mut swap_secs = 0.0f64;
        for i in 0..swaps {
            let enc = if i % 2 == 0 { &enc_b } else { &enc_a };
            let t = Instant::now();
            device.reconfigure_encoding(enc)?;
            swap_secs += t.elapsed().as_secs_f64();
            let (y, _) = device.forward(&probe, &mut rng)?;
            bits.extend(y.as_slice().iter().map(|v| v.to_bits()));
        }
        Ok((bits, swap_secs / swaps as f64))
    };
    let (bits_a, swap_mean) = run_session(cli.seed ^ 0xEC0)?;
    let (bits_b, _) = run_session(cli.seed ^ 0xEC0)?;
    let reconfigure_us = swap_mean * 1e6;
    println!();
    println!(
        "reconfiguration: {swaps} encoding swaps between batches, mean {reconfigure_us:.1} µs \
         per swap, replayed session bitwise identical: {}",
        bits_a == bits_b
    );
    assert_eq!(bits_a, bits_b, "reconfigured sessions must replay bitwise");

    // ------------------------------------------------------------------
    // JSON report
    // ------------------------------------------------------------------
    let cell_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"config\": \"{}\", \"pulses\": {}, \"analytic_mse\": {:.6e}, \
                 \"mc_mean\": {:.6e}, \"mc_se\": {:.6e}, \"band\": {:.6e}, \"within\": {}}}",
                c.config, c.pulses, c.analytic, c.mc_mean, c.mc_se, c.band, c.within
            )
        })
        .collect();
    let tiled_json: Vec<String> = tiled
        .pulses
        .iter()
        .map(|qs| {
            format!(
                "[{}]",
                qs.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
            )
        })
        .collect();
    let json_path = results_dir().join("BENCH_memse.json");
    let mut f = std::fs::File::create(&json_path)?;
    writeln!(
        f,
        "{{\"bench\": \"memse\", \"smoke\": {smoke}, \"seed\": {}, \"sigma\": {sigma_paper}, \
         \"gamma\": {gamma}, \"probe\": {probe_n}, \"search_probe\": 2, \
         \"validation\": {{\"repeats\": {repeats}, \"z\": {z}, \"eps_rel\": {eps_rel}, \
         \"all_within_band\": {all_within}, \"cells\": [{}]}}, \
         \"speedup\": {{\"mc_secs\": {mc_secs:.4}, \"mc_epochs\": {}, \
         \"analytic_capture_secs\": {capture_secs:.5}, \
         \"analytic_search_secs\": {an_search_secs:.5}, \
         \"analytic_total_secs\": {an_total_secs:.5}, \
         \"analytic_evaluations\": {an_evals}, \"speedup\": {speedup:.1}, \
         \"floor\": {speedup_floor}}}, \
         \"fidelity\": {{\"mc_pulses\": {:?}, \"analytic_pulses\": {:?}, \
         \"mc_acc_pct\": {acc_mc:.2}, \"analytic_acc_pct\": {acc_an:.2}, \
         \"gap_pp\": {fidelity_gap:.3}, \"floor_pp\": {fidelity_floor}}}, \
         \"tile_allocation\": {{\"column_groups\": {:?}, \
         \"uniform_pulses\": {:?}, \"uniform_mse\": {:.6e}, \
         \"uniform_energy\": {uniform_energy:.1}, \"uniform_latency\": {uniform_latency}, \
         \"tiled_pulses\": [{}], \"tiled_mse\": {:.6e}, \"tiled_energy\": {:.2}, \
         \"tiled_latency\": {}, \"evaluations\": {}}}, \
         \"reconfigure\": {{\"swaps\": {swaps}, \"mean_us\": {reconfigure_us:.2}, \
         \"bitwise_replay\": true}}}}",
        cli.seed,
        cell_json.join(", "),
        cfg.epochs,
        mc_result.selected_pulses,
        an_result.selected_pulses,
        tile_net.column_groups(),
        uniform.pulses,
        uniform.mse,
        tiled_json.join(", "),
        tiled.mse,
        tiled.energy,
        tiled.latency,
        tiled.evaluations,
    )?;
    println!("# wrote {}", json_path.display());
    Ok(())
}
