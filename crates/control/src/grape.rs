//! GRAPE (GRadient Ascent Pulse Engineering) with Adam updates.
//!
//! Given a target unitary and a [`TransmonSystem`], the optimizer searches for
//! piecewise-constant control amplitudes whose propagator matches the target
//! (§2.5 of the paper). The gradient of the fidelity with respect to each
//! amplitude is computed analytically from the forward/backward propagator
//! products (the standard first-order GRAPE gradient), and amplitudes are
//! clipped to the device limits after every update — the same "realistic
//! experimental concerns" the paper's optimal-control unit enforces (§3.5).

use crate::hamiltonian::TransmonSystem;
use crate::pulse::PulseProgram;
use qcc_math::{expm, gate_fidelity, CMatrix, ExpmWorkspace, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of a GRAPE run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrapeConfig {
    /// Maximum number of gradient iterations.
    pub max_iterations: usize,
    /// Target gate fidelity at which the run stops early.
    pub target_fidelity: f64,
    /// Adam learning rate (GHz per step).
    pub learning_rate: f64,
    /// Time-step duration in ns.
    pub dt: f64,
    /// Seed for the random initial pulse.
    pub seed: u64,
    /// Scale of the random initial amplitudes relative to each control limit.
    pub init_scale: f64,
}

impl Default for GrapeConfig {
    fn default() -> Self {
        Self {
            max_iterations: 300,
            target_fidelity: 0.999,
            learning_rate: 0.003,
            dt: 0.5,
            seed: 0xA5_5A,
            init_scale: 0.3,
        }
    }
}

impl GrapeConfig {
    /// A faster, lower-accuracy profile used in unit tests.
    pub fn fast() -> Self {
        Self {
            max_iterations: 150,
            target_fidelity: 0.99,
            learning_rate: 0.01,
            ..Self::default()
        }
    }
}

/// Result of a GRAPE optimization.
#[derive(Debug, Clone)]
pub struct GrapeResult {
    /// The optimized pulse program.
    pub pulse: PulseProgram,
    /// Gate fidelity of the final pulse against the target.
    pub fidelity: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the target fidelity was reached.
    pub converged: bool,
}

/// GRAPE optimizer for a fixed [`TransmonSystem`].
#[derive(Debug, Clone)]
pub struct GrapeOptimizer {
    config: GrapeConfig,
}

impl GrapeOptimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: GrapeConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GrapeConfig {
        &self.config
    }

    /// Optimizes a pulse of `n_steps · dt` ns that implements `target` on
    /// `system`.
    ///
    /// # Panics
    ///
    /// Panics if the target dimension does not match the system dimension or
    /// `n_steps` is zero.
    pub fn optimize(
        &self,
        system: &TransmonSystem,
        target: &CMatrix,
        n_steps: usize,
    ) -> GrapeResult {
        assert_eq!(target.rows(), system.dim(), "target dimension mismatch");
        assert!(n_steps > 0, "pulse needs at least one step");
        let cfg = &self.config;
        let n_controls = system.n_controls();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let mut pulse = PulseProgram::zeros(system, n_steps, cfg.dt);
        for step in &mut pulse.amplitudes {
            for (k, u) in step.iter_mut().enumerate() {
                let lim = system.limit(k);
                *u = rng.gen_range(-1.0..1.0) * lim * cfg.init_scale;
            }
        }

        // Adam state.
        let mut m = vec![vec![0.0f64; n_controls]; n_steps];
        let mut v = vec![vec![0.0f64; n_controls]; n_steps];
        let (beta1, beta2, eps) = (0.9f64, 0.999f64, 1e-8f64);

        let mut best_pulse = pulse.clone();
        let mut best_fid = 0.0;
        let mut iterations = 0;
        // One workspace (propagators, partial products, expm scratch, the
        // target adjoint) serves every gradient iteration of this run — the
        // per-iteration matrix churn of the old code was the dominant
        // allocation cost of a GRAPE solve.
        let mut ws = GradientWorkspace::for_target(target);

        for iter in 0..cfg.max_iterations {
            iterations = iter + 1;
            let (fidelity, gradient) = fidelity_and_gradient_with(system, target, &pulse, &mut ws);
            if fidelity > best_fid {
                best_fid = fidelity;
                best_pulse = pulse.clone();
            }
            if fidelity >= cfg.target_fidelity {
                return GrapeResult {
                    pulse: best_pulse,
                    fidelity: best_fid,
                    iterations,
                    converged: true,
                };
            }
            // Adam ascent step on the fidelity.
            let t = (iter + 1) as f64;
            for j in 0..n_steps {
                for k in 0..n_controls {
                    let g = gradient[j][k];
                    m[j][k] = beta1 * m[j][k] + (1.0 - beta1) * g;
                    v[j][k] = beta2 * v[j][k] + (1.0 - beta2) * g * g;
                    let m_hat = m[j][k] / (1.0 - beta1.powf(t));
                    let v_hat = v[j][k] / (1.0 - beta2.powf(t));
                    pulse.amplitudes[j][k] += cfg.learning_rate * m_hat / (v_hat.sqrt() + eps);
                }
            }
            pulse.clip_to_limits();
        }

        // Final evaluation in case the last step improved the pulse.
        let final_fid = gate_fidelity(&pulse.propagator(system), target);
        if final_fid > best_fid {
            best_fid = final_fid;
            best_pulse = pulse;
        }
        GrapeResult {
            converged: best_fid >= cfg.target_fidelity,
            pulse: best_pulse,
            fidelity: best_fid,
            iterations,
        }
    }

    /// Searches for the shortest pulse duration (in ns) that reaches the target
    /// fidelity, by doubling up from `t_min` and then bisecting. Returns the
    /// best result found and its duration.
    ///
    /// `t_guess` seeds the search (e.g. from the calibrated latency model).
    pub fn minimize_time(
        &self,
        system: &TransmonSystem,
        target: &CMatrix,
        t_guess: f64,
        refinement_rounds: usize,
    ) -> (f64, GrapeResult) {
        let dt = self.config.dt;
        let steps_for = |t: f64| ((t / dt).ceil() as usize).max(2);

        // Find a feasible upper bound.
        let mut t_hi = t_guess.max(2.0 * dt);
        let mut result_hi = self.optimize(system, target, steps_for(t_hi));
        let mut expand = 0;
        while !result_hi.converged && expand < 4 {
            t_hi *= 1.6;
            result_hi = self.optimize(system, target, steps_for(t_hi));
            expand += 1;
        }
        if !result_hi.converged {
            return (t_hi, result_hi);
        }
        // Bisection between a (possibly infeasible) lower bound and t_hi.
        let mut t_lo = t_hi / 3.0;
        let mut best = (t_hi, result_hi);
        for _ in 0..refinement_rounds {
            let t_mid = 0.5 * (t_lo + best.0);
            let r = self.optimize(system, target, steps_for(t_mid));
            if r.converged {
                best = (t_mid, r);
            } else {
                t_lo = t_mid;
            }
        }
        best
    }
}

/// Reusable buffers of one GRAPE run: the per-step propagators, the
/// forward/backward partial products, the expm scratch, the target adjoint,
/// and the two per-step products of the gradient loop. Allocated once per
/// [`GrapeOptimizer::optimize`] call and reused across all of its gradient
/// iterations (up to `max_iterations` of them), instead of reallocating
/// `3·n_steps + ~12` matrices every iteration as the per-call version did.
#[derive(Debug, Default)]
struct GradientWorkspace {
    expm: ExpmWorkspace,
    step_props: Vec<CMatrix>,
    forward: Vec<CMatrix>,
    backward: Vec<CMatrix>,
    total: CMatrix,
    scaled_h: CMatrix,
    c_j: CMatrix,
    pc: CMatrix,
    target_dag: CMatrix,
    id: CMatrix,
}

impl GradientWorkspace {
    /// A workspace with the target adjoint (constant across iterations)
    /// precomputed.
    fn for_target(target: &CMatrix) -> Self {
        Self {
            target_dag: target.dagger(),
            ..Self::default()
        }
    }

    /// Shapes the per-step buffer vectors for `n_steps` steps of dimension
    /// `dim` (no-op when already shaped).
    fn ensure(&mut self, n_steps: usize, dim: usize) {
        self.step_props.resize_with(n_steps, CMatrix::default);
        self.forward.resize_with(n_steps, CMatrix::default);
        self.backward.resize_with(n_steps, CMatrix::default);
        if self.id.rows() != dim {
            self.id = CMatrix::identity(dim);
        }
    }
}

/// Computes the gate fidelity of the pulse and its gradient with respect to
/// every amplitude, using the first-order GRAPE expressions. (The optimizer
/// itself goes through [`fidelity_and_gradient_with`] to reuse buffers; this
/// fresh-workspace wrapper serves the finite-difference test.)
#[cfg(test)]
fn fidelity_and_gradient(
    system: &TransmonSystem,
    target: &CMatrix,
    pulse: &PulseProgram,
) -> (f64, Vec<Vec<f64>>) {
    fidelity_and_gradient_with(
        system,
        target,
        pulse,
        &mut GradientWorkspace::for_target(target),
    )
}

/// [`fidelity_and_gradient`] against a reusable [`GradientWorkspace`] —
/// `ws.target_dag` must be the adjoint of `target` (use
/// [`GradientWorkspace::for_target`]).
fn fidelity_and_gradient_with(
    system: &TransmonSystem,
    target: &CMatrix,
    pulse: &PulseProgram,
    ws: &mut GradientWorkspace,
) -> (f64, Vec<Vec<f64>>) {
    let n_steps = pulse.n_steps();
    let n_controls = system.n_controls();
    let dim = system.dim();
    let d = dim as f64;
    let two_pi_dt = 2.0 * std::f64::consts::PI * pulse.dt;
    ws.ensure(n_steps, dim);

    // Step propagators and forward partial products P_j = U_j … U_1.
    for (j, amps) in pulse.amplitudes.iter().enumerate() {
        let h = system.hamiltonian(amps);
        ws.scaled_h.scale_into(&h, C64::new(0.0, -two_pi_dt));
        ws.step_props[j] = expm::expm_with(&ws.scaled_h, &mut ws.expm);
    }
    for j in 0..n_steps {
        // P_0 = U_1 · I, P_j = U_{j+1} · P_{j-1}: multiplying by the stored
        // identity keeps the arithmetic of the original accumulator loop.
        let (done, rest) = ws.forward.split_at_mut(j);
        let prev = if j == 0 { &ws.id } else { &done[j - 1] };
        ws.step_props[j].matmul_into(prev, &mut rest[0]);
    }
    // Backward products B_j = U_N … U_{j+1} (B_{N-1} = I), and the full
    // product U_N … U_1.
    ws.backward[n_steps - 1].copy_from(&ws.id);
    for j in (0..n_steps.saturating_sub(1)).rev() {
        let (head, tail) = ws.backward.split_at_mut(j + 1);
        tail[0].matmul_into(&ws.step_props[j + 1], &mut head[j]);
    }
    ws.backward[0].matmul_into(&ws.step_props[0], &mut ws.total);
    let overlap = target.hs_inner(&ws.total); // tr(target† U_total)
    let fidelity = overlap.norm_sqr() / (d * d);

    // Gradient: dF/du_{j,k} = (2/d²)·Re[ conj(g)·tr(target† B_j ∂U_j P_{j-1}) ]
    // with the first-order approximation ∂U_j ≈ -i·2π·dt·H_k·U_j, so
    // tr(target† B_j (-i 2π dt H_k) U_j P_{j-1}) = -i 2π dt · tr(C_j H_k P_j)
    // where C_j = target† B_j and P_j = forward[j].
    let mut gradient = vec![vec![0.0f64; n_controls]; n_steps];
    for (j, grad_row) in gradient.iter_mut().enumerate() {
        ws.target_dag.matmul_into(&ws.backward[j], &mut ws.c_j);
        // Using the cyclic property: tr(C_j H_k P_j) = tr(P_j C_j H_k), so one
        // matmul per step suffices and each control costs only a trace.
        ws.forward[j].matmul_into(&ws.c_j, &mut ws.pc);
        for (k, (_, h_k, _)) in system.controls().iter().enumerate() {
            // tr(P_j C_j H_k) = Σ_{a,b} (P_j C_j)[a,b] · H_k[b,a].
            let mut tr = C64::zero();
            for a in 0..dim {
                for b in 0..dim {
                    let h = h_k[(b, a)];
                    if h.re != 0.0 || h.im != 0.0 {
                        tr += ws.pc[(a, b)] * h;
                    }
                }
            }
            let term = C64::new(0.0, -two_pi_dt) * tr;
            let grad = 2.0 * (overlap.conj() * term).re / (d * d);
            grad_row[k] = grad;
        }
    }
    (fidelity, gradient)
}

/// Convenience wrapper: optimize `target` on `system` with default settings and
/// a pulse of duration `duration_ns`.
pub fn optimize_pulse(
    system: &TransmonSystem,
    target: &CMatrix,
    duration_ns: f64,
    config: GrapeConfig,
) -> GrapeResult {
    let n_steps = ((duration_ns / config.dt).ceil() as usize).max(2);
    GrapeOptimizer::new(config).optimize(system, target, n_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_hw::ControlLimits;
    use qcc_math::pauli;

    fn single_qubit_system() -> TransmonSystem {
        TransmonSystem::new(1, &[], ControlLimits::asplos19())
    }

    #[test]
    // `k` indexes both `grad` and the pulse being bumped; an iterator over one
    // of them would obscure the pairing.
    #[allow(clippy::needless_range_loop)]
    fn gradient_matches_finite_differences() {
        let sys = TransmonSystem::new(1, &[], ControlLimits::asplos19());
        let target = pauli::hadamard();
        // Use a small dt: the GRAPE gradient is first order in dt, so the
        // agreement with finite differences tightens as dt shrinks.
        let mut pulse = PulseProgram::zeros(&sys, 6, 0.1);
        // Deterministic non-trivial starting pulse.
        for (j, step) in pulse.amplitudes.iter_mut().enumerate() {
            step[0] = 0.03 * ((j as f64) - 2.0) / 3.0;
            step[1] = 0.02 * ((j % 3) as f64 - 1.0);
        }
        let (f0, grad) = fidelity_and_gradient(&sys, &target, &pulse);
        let h = 1e-6;
        for j in [0usize, 3, 5] {
            for k in 0..sys.n_controls() {
                let mut bumped = pulse.clone();
                bumped.amplitudes[j][k] += h;
                let (f1, _) = fidelity_and_gradient(&sys, &target, &bumped);
                let fd = (f1 - f0) / h;
                // The GRAPE gradient is first order in dt, so agreement with a
                // finite difference is approximate (a few percent at dt=0.5 ns)
                // but the sign and magnitude must match.
                let tol = 0.10 * fd.abs().max(grad[j][k].abs()) + 2e-4;
                assert!(
                    (fd - grad[j][k]).abs() < tol,
                    "step {j} control {k}: fd {fd} vs analytic {}",
                    grad[j][k]
                );
            }
        }
    }

    #[test]
    fn grape_learns_x_gate() {
        let sys = single_qubit_system();
        let target = pauli::sigma_x();
        // A π rotation at 0.1 GHz needs 5 ns; give it 8 ns of budget.
        let result = optimize_pulse(&sys, &target, 8.0, GrapeConfig::fast());
        assert!(
            result.fidelity > 0.99,
            "X-gate GRAPE fidelity {}",
            result.fidelity
        );
        assert!(result.pulse.respects_limits(1e-9));
    }

    #[test]
    fn grape_learns_hadamard() {
        let sys = single_qubit_system();
        let target = pauli::hadamard();
        let result = optimize_pulse(&sys, &target, 10.0, GrapeConfig::fast());
        assert!(
            result.fidelity > 0.99,
            "H-gate GRAPE fidelity {}",
            result.fidelity
        );
    }

    #[test]
    fn grape_learns_iswap_on_coupled_pair() {
        let sys = TransmonSystem::new(2, &[(0, 1)], ControlLimits::asplos19());
        let target = pauli::iswap();
        // An iSWAP needs ≥ 12.5 ns of interaction at the coupling limit; give
        // head-room so the fast profile converges reliably.
        let mut cfg = GrapeConfig::fast();
        cfg.dt = 1.0;
        let result = optimize_pulse(&sys, &target, 20.0, cfg);
        assert!(
            result.fidelity > 0.98,
            "iSWAP GRAPE fidelity {}",
            result.fidelity
        );
        assert!(result.pulse.respects_limits(1e-9));
    }

    #[test]
    fn infeasible_duration_does_not_converge() {
        // 1 ns is far too short for an X gate at a 0.1 GHz drive limit.
        let sys = single_qubit_system();
        let target = pauli::sigma_x();
        let result = optimize_pulse(&sys, &target, 1.0, GrapeConfig::fast());
        assert!(!result.converged);
        assert!(result.fidelity < 0.9);
    }

    #[test]
    fn minimize_time_finds_shorter_feasible_pulse() {
        let sys = single_qubit_system();
        let target = pauli::rx(std::f64::consts::FRAC_PI_2);
        let opt = GrapeOptimizer::new(GrapeConfig::fast());
        let (t_best, result) = opt.minimize_time(&sys, &target, 8.0, 3);
        assert!(result.converged, "fidelity {}", result.fidelity);
        // The theoretical minimum is 2.5 ns; we should land well under the
        // 8 ns guess.
        assert!(t_best < 8.0 + 1e-9);
        assert!(t_best >= 1.0);
    }
}
