//! `online`: the continual-learning loop. An `OnlinePublisher` at
//! `p = 462` (`N_x = 21`), `λ = 1`, publishing every 8 samples into a
//! `ModelRegistry`, absorbs a gradually drifting stream of 2 000 samples;
//! each pass over the stream starts a fresh publisher and registry.
//!
//! One operation is one publish (refit → freeze → registry); one work item
//! is one absorbed sample. Oracles: every pass publishes the same digest
//! sequence, the final published readout matches a from-scratch
//! `RidgePlan` on the same samples to 1e-9, and the traced replay from
//! public pieces publishes the same digests.

use crate::report::Slices;
use crate::trace::{Layers, Tracer};
use crate::{peak_rss_mb, Ledger, Outcome, RunSpec};
use dfr_core::online::OnlineRidge;
use dfr_core::streaming::{StreamingCache, StreamingForward};
use dfr_core::DfrClassifier;
use dfr_data::{drifting_stream, DatasetSpec, DriftKind, Sample};
use dfr_linalg::ridge::{augment_ones, RidgeMode, RidgePlan};
use dfr_linalg::Matrix;
use dfr_serve::FrozenModel;
use dfr_server::{ModelRegistry, OnlinePublisher, PublisherConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const STREAM: usize = 2_000;
const NODES: usize = 21;
const CLASSES: usize = 3;
const PUBLISH_EVERY: usize = 8;
const BETA: f64 = 1e-4;
const SETUP_REPEATS: usize = 7;
const TOLERANCE: f64 = 1e-9;

fn set_up(seed: u64) -> Result<(Vec<Sample>, DfrClassifier), String> {
    let spec = DatasetSpec::new("DRIFT", CLASSES, 40, 2, 0, 0, 0.3).with_class_sep(2.0);
    let stream =
        drifting_stream(&spec, DriftKind::Gradual, seed, STREAM).map_err(|e| e.to_string())?;
    let model = DfrClassifier::paper_default(NODES, spec.channels, CLASSES, 0)
        .map_err(|e| e.to_string())?;
    Ok((stream, model))
}

fn fresh_registry(model: &DfrClassifier) -> Arc<ModelRegistry> {
    Arc::new(ModelRegistry::new(FrozenModel::freeze(model)))
}

/// Checks a pass's digests against the reference sequence (the first
/// complete pass), adopting it as the reference when there is none yet.
fn same_digests(reference: &mut Vec<u64>, pass: &[u64]) -> Result<(), String> {
    let n = reference.len().min(pass.len());
    if reference[..n] != pass[..n] {
        return Err("a repeated pass published a different digest sequence".into());
    }
    if pass.len() > reference.len() {
        *reference = pass.to_vec();
    }
    Ok(())
}

/// The final published readout against a from-scratch ridge fit on the
/// same absorbed samples.
fn check_against_batch(
    model: &DfrClassifier,
    samples: &[Sample],
    published: &FrozenModel,
) -> Result<f64, String> {
    let forward = StreamingForward::paper();
    let mut cache = StreamingCache::empty();
    let p = model.feature_dim();
    let mut x = Matrix::zeros(samples.len(), p);
    let mut y = Matrix::zeros(samples.len(), CLASSES);
    for (i, s) in samples.iter().enumerate() {
        forward
            .run_into(model, &s.series, &mut cache)
            .map_err(|e| e.to_string())?;
        x.row_mut(i).copy_from_slice(&cache.features);
        y[(i, s.label)] = 1.0;
    }
    let aug = augment_ones(&x);
    let w_aug = RidgePlan::with_mode(&aug, &y, RidgeMode::Primal)
        .and_then(|mut plan| plan.solve(BETA))
        .map_err(|e| e.to_string())?;
    let thawed = published.thaw().map_err(|e| e.to_string())?;
    let mut diff = 0.0f64;
    for c in 0..CLASSES {
        for i in 0..p {
            diff = diff.max((thawed.w_out()[(c, i)] - w_aug[(i, c)]).abs());
        }
        diff = diff.max((thawed.bias()[c] - w_aug[(p, c)]).abs());
    }
    if diff.is_nan() || diff > TOLERANCE {
        return Err(format!(
            "published readout differs from the batch ridge fit by {diff:e}"
        ));
    }
    Ok(diff)
}

pub fn run(spec: RunSpec) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        inputs = Some(set_up(spec.seed)?);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (stream, model) = inputs.expect("at least one set-up");
    let config = PublisherConfig {
        publish_every: PUBLISH_EVERY,
        min_interval: Duration::ZERO,
    };
    let (untraced, traced) = spec.windows();

    let mut ledger = Ledger::default();
    let mut reference: Vec<u64> = Vec::new();
    let mut passes = 0usize;
    let start = Instant::now();
    let mut slices = Slices::new(start);
    let (mut publisher, registry, absorbed) = 'window: loop {
        let registry = fresh_registry(&model);
        let mut publisher =
            OnlinePublisher::new(model.clone(), BETA, Arc::clone(&registry), config)
                .map_err(|e| e.to_string())?;
        let mut digests = Vec::new();
        for (k, s) in stream.iter().enumerate() {
            // Stop inside a pass, so the oracle below has samples to fit.
            if k > 0 && start.elapsed().as_secs_f64() >= untraced {
                same_digests(&mut reference, &digests)?;
                break 'window (publisher, registry, k);
            }
            ledger.attempted += 1;
            match publisher.absorb(&s.series, s.label) {
                Ok(()) => ledger.ok += 1,
                Err(e) => return Err(format!("absorb failed: {e}")),
            }
            let t0 = Instant::now();
            slices.add(t0, 1.0);
            match publisher.maybe_publish() {
                Ok(None) => {}
                Ok(Some(d)) => {
                    out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    ledger.attempted += 1;
                    ledger.ok += 1;
                    digests.push(d);
                }
                Err(_) => {
                    out.op_ms.push(f64::INFINITY);
                    ledger.attempted += 1;
                    ledger.failed += 1;
                }
            }
        }
        same_digests(&mut reference, &digests)?;
        passes += 1;
    };
    let end = Instant::now();
    out.throughput = slices.rate(end);
    let mean_rate = (passes * stream.len() + absorbed) as f64 / (end - start).as_secs_f64();
    out.peak_rss_mb = peak_rss_mb()?;
    out.ledger = ledger;

    // Oracle, off the clock: publish everything absorbed in the last pass
    // and compare the registry's live model with a from-scratch fit on the
    // same samples.
    publisher.publish_now().map_err(|e| e.to_string())?;
    let diff = check_against_batch(&model, &stream[..absorbed], &registry.active())?;
    out.notes.push(format!(
        "oracle: {passes} full passes with identical digests ({} publishes each); \
         final readout vs batch ridge on {absorbed} samples max |diff| {diff:.3e}",
        reference.len()
    ));

    if spec.trace {
        let mut tracer = Tracer::new(true, Instant::now());
        let mut layers = Layers::default();
        let t0 = Instant::now();
        let mut traced_samples = 0.0;
        while traced_samples == 0.0 || t0.elapsed().as_secs_f64() < traced {
            traced_samples += replay_pass(
                &stream,
                &model,
                &reference,
                traced,
                t0,
                &mut tracer,
                &mut layers,
            )?;
        }
        let traced_wall = t0.elapsed().as_secs_f64();
        layers.absorb(&tracer);
        crate::write_spans("online", spec.seed, &[&tracer])?;
        let overhead = (mean_rate / (traced_samples / traced_wall) - 1.0) * 100.0;
        layers.set("trace.overhead_pct", overhead);
        out.notes
            .push("oracle: traced replay published the untraced digest sequence".into());
        out.layers = layers;
    }
    Ok(out)
}

/// One pass of `OnlinePublisher` rebuilt from its public pieces, with a
/// span around each layer call; stops early once `seconds` have passed
/// since `t0`. Returns the samples absorbed.
fn replay_pass(
    stream: &[Sample],
    model: &DfrClassifier,
    reference: &[u64],
    seconds: f64,
    t0: Instant,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<f64, String> {
    let err = |e: dfr_core::CoreError| e.to_string();
    let mut model = model.clone();
    let registry = fresh_registry(&model);
    let forward = StreamingForward::paper();
    let mut cache = StreamingCache::empty();
    let mut learner =
        OnlineRidge::new(model.feature_dim(), model.num_classes(), BETA).map_err(err)?;
    let mut w_out = Matrix::zeros(model.num_classes(), model.feature_dim());
    let mut bias = vec![0.0; model.num_classes()];
    let mut published = 0usize;
    let mut absorbed = 0.0;
    for (k, s) in stream.iter().enumerate() {
        if k > 0 && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        tr.time("core.streaming_forward", || {
            forward.run_into(&model, &s.series, &mut cache)
        })
        .map_err(err)?;
        tr.time("core.online_absorb", || {
            learner.absorb_label(&cache.features, s.label)
        })
        .map_err(err)?;
        absorbed += 1.0;
        if (k + 1) % PUBLISH_EVERY != 0 {
            continue;
        }
        let root = tr.open("online.publish");
        tr.time("core.online_refit", || {
            learner.refit_into(&mut w_out, &mut bias)
        })
        .map_err(err)?;
        if learner.last_report().escalated {
            layers.add("core.online_escalations", 1.0);
        }
        model.w_out_mut().copy_from(&w_out);
        model.bias_mut().copy_from_slice(&bias);
        let frozen = tr.time("serve.freeze", || FrozenModel::freeze(&model));
        let digest = tr.time("server.registry_publish", || registry.publish(frozen));
        tr.close(root);
        layers.add("online.publishes", 1.0);
        if reference.get(published).is_some_and(|&want| want != digest) {
            return Err("traced replay published a different digest".into());
        }
        published += 1;
    }
    Ok(absorbed)
}
