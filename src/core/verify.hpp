// A posteriori answer certification and the escalation ladder (PR 8).
//
// A fast direct solver is approximate by construction: the skeletons
// carry an O(tau) error, near-singular leaves may have been repaired
// with a diagonal shift, and a long-lived cached factor can rot. This
// module turns "we hope the factor is good" into "every answer is
// certified or escalated":
//
//   rung 0 — measure: relative residual ‖(λI+K)x − b‖ / ‖b‖ through a
//            treecode matvec (VerifyPolicy::Operator selects the
//            factorized-form apply() or the factorization-independent
//            source-skeleton apply_source()).
//   rung 1 — iterative refinement: x += F⁻¹(b − A·x), the classic
//            approximate-factor refinement loop, until the target is
//            met or the contraction stagnates (refine.steps).
//   rung 2 — factor-preconditioned GMRES on A (refine.escalations),
//            reusing GmresOptions::right_precond.
//
// The ladder is written against a VerifyOps callback pair so every
// solver shares it: the sequential FastDirectSolver wrappers below,
// and the distributed solvers, whose u/x are replicated on every rank —
// each rank reaches the identical refine/stop decision, so the
// correction solves routed through VerifyOps::solve stay collective.
//
// There is one ladder, for a block of B >= 1 columns; a single vector is
// the B = 1 case. It refines only failing columns (one narrow blocked
// correction solve per step), which is what keeps certification cheap
// for the serving path's batched solves.
#pragma once

#include "core/solver.hpp"
#include "iterative/gmres.hpp"

#include <cstdint>
#include <functional>
#include <vector>

namespace fdks::core {

/// Sampling decision: is solve number `solve_index` in-sample under
/// policy `p`? Index 0 is always in-sample (the first solve after a
/// factorization is the one most worth checking).
bool should_verify(const VerifyPolicy& p, std::uint64_t solve_index);

/// y = (λI+K) x through the operator the policy certifies against.
void verify_apply(const HMatrix& h, double lambda, const VerifyPolicy& p,
                  std::span<const double> x, std::span<double> y);

/// The two callbacks the ladder is generic over. `apply` is the
/// certification operator y = (λI+K)x; `solve` is the approximate
/// factor Y = F⁻¹ B on a block of columns, used for the batched rung-1
/// corrections and, one column at a time, as the GMRES right
/// preconditioner of rung 2.
struct VerifyOps {
  iter::LinOp apply;
  std::function<Matrix(const Matrix&)> solve;
  /// Emit verify.*/refine.* obs keys. Distributed callers set this on
  /// rank 0 only so collective ladders count each event once.
  bool emit_obs = true;
};

/// Certify every column of x (solutions of A X = B already computed by
/// the caller), then refine ONLY the failing columns — each refinement
/// step gathers their residuals into one narrow block, runs a single
/// blocked correction solve, and scatters the updates back (per-column
/// blame, batched repair). Columns that stagnate above target escalate
/// individually through the GMRES rung. Returns one outcome per column.
/// Emits verify.checks/fail/residual/seconds and refine.steps/
/// escalations (when ops.emit_obs). Honors `cancel` between rungs and
/// inside the GMRES rung (CancelledError propagates). The sampling
/// decision is the caller's (should_verify) — this always measures.
std::vector<VerifyOutcome> certify_and_refine_block_ops(
    const VerifyOps& ops, const Matrix& b, Matrix& x, const VerifyPolicy& p,
    const CancelToken* cancel = nullptr);

/// Run the ladder on a batch and fold its per-column outcomes into `st`:
/// worst residual, summed escalations, NotConverged when a column stays
/// uncertified, else Escalated when any column escalated. The shared
/// certification step of the distributed solvers' status blocks.
void certify_into_status(const VerifyOps& ops, const Matrix& b, Matrix& x,
                         const VerifyPolicy& p, SolveStatus& st);

/// FastDirectSolver adapters: build VerifyOps from the solver and run
/// the ladder, with the sampling decision folded in (`solve_index`
/// feeds should_verify; a skipped solve returns measured == false and
/// leaves x untouched).
std::vector<VerifyOutcome> certify_and_refine_block(
    const FastDirectSolver& s, const Matrix& b, Matrix& x,
    const VerifyPolicy& p, std::uint64_t solve_index = 0,
    const CancelToken* cancel = nullptr);

/// Single-vector form: the B = 1 case of certify_and_refine_block.
VerifyOutcome certify_and_refine(const FastDirectSolver& s,
                                 std::span<const double> b,
                                 std::span<double> x, const VerifyPolicy& p,
                                 std::uint64_t solve_index = 0,
                                 const CancelToken* cancel = nullptr);

}  // namespace fdks::core
