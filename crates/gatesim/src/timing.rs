//! QPU access-time model: sampling time vs. total wall-clock QPU time.
//!
//! Section 4.2.1 of the paper separates the circuit-sampling time `t_s` from
//! the overall QPU time `t_qpu` (initialisation and communication overhead,
//! excluding cloud queueing) and observes that `t_qpu` is orders of
//! magnitude larger than `t_s` and nearly independent of problem size. That
//! asymmetry is the quantitative argument for *local* QPU co-processors.

use crate::circuit::Circuit;
use crate::noise::NoiseModel;

/// Overheads of one batched circuit-sampling job on a QPU service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpuTimingModel {
    /// Per-shot overhead: qubit reset plus measurement/readout, seconds.
    pub shot_overhead: f64,
    /// Fixed per-job initialisation (control-electronics arming, loading
    /// waveforms), seconds.
    pub init_overhead: f64,
    /// Fixed per-job communication/result-marshalling overhead, seconds.
    pub comm_overhead: f64,
}

impl QpuTimingModel {
    /// Calibrated to the IBM Q measurements reported in the paper:
    /// `t_s = 77.9 ms`, `t_qpu = 9.74 s` at 1024 shots for the 18-qubit
    /// problem, growing to `t_s = 113.7 ms`, `t_qpu = 10.35 s` at 27 qubits.
    pub fn ibm_cloud() -> Self {
        QpuTimingModel { shot_overhead: 70e-6, init_overhead: 9.0, comm_overhead: 0.6 }
    }

    /// A hypothetical local accelerator: no cloud communication, tight
    /// integration budget for initialisation.
    pub fn local_coprocessor() -> Self {
        QpuTimingModel { shot_overhead: 70e-6, init_overhead: 1e-3, comm_overhead: 10e-6 }
    }

    /// Pure sampling time `t_s`: shots × (circuit duration + shot overhead).
    pub fn sampling_time(&self, circuit: &Circuit, noise: &NoiseModel, shots: usize) -> f64 {
        let duration = circuit.duration(noise.time_1q, noise.time_2q);
        shots as f64 * (duration + self.shot_overhead)
    }

    /// Total QPU time `t_qpu = t_s + init + comm` for one job.
    pub fn total_qpu_time(&self, circuit: &Circuit, noise: &NoiseModel, shots: usize) -> f64 {
        self.sampling_time(circuit, noise, shots) + self.init_overhead + self.comm_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    fn qaoa_like_circuit(n: usize, layers: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.push(Gate::H(q));
        }
        for _ in 0..layers {
            for q in 0..n - 1 {
                c.push(Gate::Cx(q, q + 1));
            }
            for q in 0..n {
                c.push(Gate::Rx(q, 0.3));
            }
        }
        c
    }

    #[test]
    fn cloud_overhead_dominates_sampling_time() {
        let c = qaoa_like_circuit(18, 3);
        let model = QpuTimingModel::ibm_cloud();
        let noise = NoiseModel::ibm_auckland();
        let ts = model.sampling_time(&c, &noise, 1024);
        let tq = model.total_qpu_time(&c, &noise, 1024);
        // Shape from the paper: t_s in the tens of milliseconds, t_qpu in
        // the several-second range, two orders of magnitude apart.
        assert!(ts > 0.02 && ts < 0.5, "t_s = {ts}");
        assert!(tq > 9.0 && tq < 11.0, "t_qpu = {tq}");
        // The overhead factor t_qpu / t_s that a local QPU eliminates.
        assert!(tq / ts > 20.0);
    }

    #[test]
    fn problem_size_has_negligible_impact_on_total_time() {
        let model = QpuTimingModel::ibm_cloud();
        let noise = NoiseModel::ibm_auckland();
        let small = model.total_qpu_time(&qaoa_like_circuit(18, 1), &noise, 1024);
        let large = model.total_qpu_time(&qaoa_like_circuit(27, 1), &noise, 1024);
        let rel = (large - small) / small;
        assert!(rel < 0.05, "size changed total time by {}%", rel * 100.0);
    }

    #[test]
    fn local_coprocessor_removes_the_overhead() {
        let c = qaoa_like_circuit(18, 3);
        let noise = NoiseModel::ibm_auckland();
        let cloud = QpuTimingModel::ibm_cloud();
        let local = QpuTimingModel::local_coprocessor();
        let speedup =
            cloud.total_qpu_time(&c, &noise, 1024) / local.total_qpu_time(&c, &noise, 1024);
        assert!(speedup > 50.0, "local speedup only {speedup}");
        let overhead =
            local.total_qpu_time(&c, &noise, 1024) / local.sampling_time(&c, &noise, 1024);
        assert!(overhead < 1.1);
    }

    #[test]
    fn sampling_time_scales_linearly_with_shots() {
        let c = qaoa_like_circuit(10, 2);
        let model = QpuTimingModel::ibm_cloud();
        let noise = NoiseModel::ibm_auckland();
        let t1 = model.sampling_time(&c, &noise, 512);
        let t2 = model.sampling_time(&c, &noise, 1024);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
