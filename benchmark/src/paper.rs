//! The `paper-qaoa` workload: the Table 2 pipeline at its default cell,
//! one instance at a time, with a transpile onto IBM Q Auckland.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use qjo::core::classical::dp_optimal;
use qjo::core::{assess_samples, JoEncoder, Query, QueryGenerator, QueryGraph, ThresholdSpec};
use qjo::exec::{stream_seed, Parallelism};
use qjo::gatesim::optim::GradientDescent;
use qjo::gatesim::{qaoa_circuit, NoisySimulator, QaoaParams, QaoaSimulator};
use qjo::qubo::SampleSet;
use qjo::transpile::{Device, Strategy, Transpiler};
use qjo_obs::trace::slice_scope;

use crate::attrib::{self, Attribution};
use crate::stats::OpRecord;
use crate::{Draws, Outcome, Trace, SUITE};

/// Table 2's default cell: a 3-relation cycle with no predicates, which
/// encodes onto 19 qubits.
const RELATIONS: usize = 3;
const QUBITS: usize = 19;
const SHOTS: usize = 1024;
const TRAJECTORIES: usize = 8;
/// Table 2's smaller optimiser budget.
const ITERATIONS: usize = 20;
/// The warm-up instance runs one optimiser iteration: it touches every
/// stage once without paying for a whole instance per set-up.
const WARMUP_ITERATIONS: usize = 1;
/// Draw streams of the instance suite, its transpiler and noise seeds, and
/// each run's instance order.
const INSTANCES: u64 = 1;
const NOISE: u64 = 2;
const ORDER: u64 = 3;

/// Instances per run for `seconds`: a pure function of the arguments,
/// sized so a run measures for about that long on a 2-core x86-64
/// container (one instance takes 5 to 6.5 s there). An odd count keeps the
/// median one instance's latency.
fn op_count(seconds: u64) -> usize {
    (seconds as usize / 4).max(1) | 1
}

/// One instance of the suite.
struct Instance {
    /// `q<index in the suite>`.
    id: String,
    query: Query,
    /// Transpiler and noise seed.
    seed: u64,
}

/// The device and the instances of one run, in run order.
struct State {
    device: Device,
    instances: Vec<Instance>,
}

fn generator() -> QueryGenerator {
    QueryGenerator {
        log_card_range: (1.0, 3.0),
        ..QueryGenerator::paper_defaults(QueryGraph::Cycle, RELATIONS)
    }
}

/// What one instance produced.
struct Sampled {
    qubits: usize,
    depth: usize,
    valid_shots: u64,
    optimal_shots: u64,
    total_shots: u64,
    best_cost: Option<f64>,
}

/// One instance through every stage. When traced, each stage call runs in
/// a slice named with the instance id, down to each `expectation` call.
fn instance(
    device: &Device,
    query: &Query,
    seed: u64,
    optimal_cost: f64,
    iterations: usize,
    id: &str,
    traced: bool,
) -> Result<Sampled, String> {
    let slice = |call: &str| traced.then(|| slice_scope(format!("bench.{call}/{id}")));
    let _op = slice("op");
    let enc = {
        let _s = slice("encode");
        JoEncoder { thresholds: ThresholdSpec::Auto(1), ..Default::default() }.encode(query)
    };
    let sim = {
        let _s = slice("simulator");
        QaoaSimulator::new(&enc.qubo)
    };
    let params = {
        let _s = slice("optimize");
        let mut calls = 0usize;
        let opt = GradientDescent { iterations, learning_rate: 0.05, fd_step: 1e-3 }.minimize(
            |x| {
                let _e = traced.then(|| slice_scope(format!("bench.expectation/{id}.{calls}")));
                calls += 1;
                sim.expectation(&QaoaParams::from_flat(1, x))
            },
            &[0.1, 0.1],
        );
        QaoaParams::from_flat(1, &opt.x)
    };
    let circuit = {
        let _s = slice("circuit");
        qaoa_circuit(&enc.qubo.to_ising(), &params)
    };
    let depth = {
        let _s = slice("transpile");
        Transpiler::new(Strategy::QiskitLike, seed)
            .transpile(&circuit, &device.topology, device.gate_set)
            .map_err(|e| format!("transpile failed: {e}"))?
            .depth()
    };
    let reads = {
        let _s = slice("noisy_sample");
        NoisySimulator {
            model: device.noise,
            trajectories: TRAJECTORIES,
            seed,
            parallelism: Parallelism::sequential(),
        }
        .sample(&circuit, SHOTS)
    };
    let samples = {
        let _s = slice("from_shots");
        SampleSet::from_shots(&reads, |x| enc.qubo.energy(x).expect("shot rows match the model"))
    };
    let quality = {
        let _s = slice("assess");
        assess_samples(&samples, &enc.registry, query, optimal_cost)
    };
    let total = samples.total_reads();
    let shots = |fraction: f64| (fraction * total as f64).round() as u64;
    Ok(Sampled {
        qubits: enc.num_qubits(),
        depth,
        valid_shots: shots(quality.valid_fraction),
        optimal_shots: shots(quality.optimal_fraction),
        total_shots: total,
        best_cost: quality.best.map(|(_, cost)| cost),
    })
}

/// The next query seed's instance that falls in the cell: with some
/// cardinality draws the instance encodes onto 18 qubits instead.
fn cell_instance(gen: &QueryGenerator, suite: &mut Draws) -> Query {
    let encoder = JoEncoder { thresholds: ThresholdSpec::Auto(1), ..Default::default() };
    for _ in 0..1000 {
        let query = gen.with_predicate_count(suite.draw(), 0);
        if encoder.encode(&query).num_qubits() == QUBITS {
            return query;
        }
    }
    panic!("no {QUBITS}-qubit instance in 1000 query seeds");
}

/// The suite's instances and their transpiler and noise seeds are fixed;
/// `seed` only orders them. With 8 noise trajectories per instance the
/// valid and optimal shares move by a third between noise seeds, so a
/// seed that drew them would set the spread between runs.
fn setup(seed: u64, ops: usize) -> State {
    let device = Device::ibm_auckland();
    let gen = generator();
    let mut suite = Draws::new(stream_seed(SUITE, INSTANCES));
    let queries: Vec<Query> = (0..ops).map(|_| cell_instance(&gen, &mut suite)).collect();
    let warm = std::iter::repeat_with(|| cell_instance(&gen, &mut suite))
        .take(1000)
        .find(|q| !queries.contains(q))
        .expect("an instance outside the measured ones for the warm-up");
    let instances = Draws::new(stream_seed(seed, ORDER))
        .permutation(ops)
        .into_iter()
        .map(|i| Instance {
            id: format!("q{i}"),
            query: queries[i].clone(),
            seed: stream_seed(stream_seed(SUITE, NOISE), i as u64),
        })
        .collect();
    // Nothing reads the warm-up's shot shares, so it needs no reference
    // optimum (and set-up computes none).
    let warm_seed = stream_seed(SUITE, NOISE);
    instance(&device, &warm, warm_seed, f64::NAN, WARMUP_ITERATIONS, "warm", false)
        .expect("the warm-up instance runs");
    State { device, instances }
}

/// Checks one instance; returns its record and digest line.
fn check(id: &str, sampled: &Sampled, optimal_cost: f64) -> Result<(OpRecord, String), String> {
    if sampled.qubits != QUBITS {
        return Err(format!("instance encodes onto {} qubits, not {QUBITS}", sampled.qubits));
    }
    if sampled.total_shots != SHOTS as u64 {
        return Err(format!("{} shots sampled, not {SHOTS}", sampled.total_shots));
    }
    if !(sampled.optimal_shots <= sampled.valid_shots && sampled.valid_shots <= sampled.total_shots)
    {
        return Err(format!(
            "optimal {} <= valid {} <= {} shots does not hold",
            sampled.optimal_shots, sampled.valid_shots, sampled.total_shots
        ));
    }
    if let Some(cost) = sampled.best_cost {
        if cost < optimal_cost * (1.0 - 1e-9) {
            return Err(format!("sampled cost {cost} beats the exact optimum {optimal_cost}"));
        }
    }
    let total = sampled.total_shots as f64;
    let record = OpRecord {
        latency: Duration::ZERO,
        ok: true,
        by_backend: sampled.best_cost.is_some(),
        cost_ratio: sampled.best_cost.map(|c| c / optimal_cost),
        valid: sampled.valid_shots as f64 / total,
        optimal: sampled.optimal_shots as f64 / total,
    };
    let digest = format!(
        "{id} valid={} optimal={} best={:016x} depth={}\n",
        sampled.valid_shots,
        sampled.optimal_shots,
        sampled.best_cost.map_or(0, f64::to_bits),
        sampled.depth
    );
    Ok((record, digest))
}

fn pass(state: &State, refs: &[f64], traced: bool) -> (Outcome, Vec<usize>) {
    let mut out = Outcome::default();
    let mut depths = Vec::new();
    let start = Instant::now();
    for (inst, &optimal_cost) in state.instances.iter().zip(refs) {
        let id = &inst.id;
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            instance(&state.device, &inst.query, inst.seed, optimal_cost, ITERATIONS, id, traced)
        }));
        let latency = t0.elapsed();
        let checked = match result {
            Ok(Ok(sampled)) => {
                depths.push(sampled.depth);
                check(id, &sampled, optimal_cost)
            }
            Ok(Err(e)) => Err(e),
            Err(_) => Err("pipeline panicked".into()),
        };
        match checked {
            Ok((mut record, digest)) => {
                record.latency = latency;
                out.records.push(record);
                out.digest.push_str(&digest);
            }
            Err(e) => {
                out.records.push(OpRecord {
                    latency,
                    ok: false,
                    by_backend: false,
                    cost_ratio: None,
                    valid: 0.0,
                    optimal: 0.0,
                });
                out.digest.push_str(&format!("{id} failed\n"));
                out.failures.push(format!("{id}: {e}"));
            }
        }
    }
    out.wall = start.elapsed();
    (out, depths)
}

fn layer_metrics(a: &Attribution, instances: usize, depths: &[usize], trace: &mut Trace) {
    let span = |k: &str| a.spans.get(k).copied().unwrap_or_default();
    let per_instance_ms = |k: &str| span(k).total_ns as f64 / 1e6 / instances as f64;
    trace.metric(
        "core.formulate_ms",
        span("bench.encode").total_ns as f64 / 1e6 / span("bench.encode").calls.max(1) as f64,
    );
    trace.metric("gatesim.optimize_ms", per_instance_ms("bench.optimize"));
    trace.metric("gatesim.expectation_ms", per_instance_ms("bench.expectation"));
    trace.metric("gatesim.noisy_sample_ms", per_instance_ms("bench.noisy_sample"));
    let sample_s = span("bench.noisy_sample").total_ns as f64 / 1e9;
    trace.metric("gatesim.shots_per_s", (instances * SHOTS) as f64 / sample_s);
    trace.metric("transpile_ms", per_instance_ms("bench.transpile"));
    trace.metric(
        "transpile.depth",
        depths.iter().sum::<usize>() as f64 / depths.len().max(1) as f64,
    );
    trace.metric("core.assess_ms", per_instance_ms("bench.assess"));
}

/// Runs paper-qaoa: `setups` set-ups, the timed pass, and with `trace` a
/// traced pass over the same instances.
pub fn run(seed: u64, seconds: u64, setups: usize, traced: bool, start: Instant) -> Outcome {
    let ops = op_count(seconds);
    let (setup_s, state) = crate::repeat_setup(setups, start, || setup(seed, ops));
    let refs: Vec<f64> = state.instances.iter().map(|i| dp_optimal(&i.query).1).collect();
    let (mut out, _) = pass(&state, &refs, false);
    out.setup_s = setup_s;
    if !traced {
        return out;
    }
    crate::start_trace();
    let (traced_out, depths) = pass(&state, &refs, true);
    qjo_obs::trace::stop();
    let attribution = attrib::attribute(&qjo_obs::trace::snapshot_events());
    let mut trace = Trace::new(&attribution, &out, &traced_out);
    layer_metrics(&attribution, ops, &depths, &mut trace);
    out.trace = Some(trace);
    out
}
