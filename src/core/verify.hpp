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
// There is one ladder (certify_and_refine_block_ops in verify.cpp), for
// a block of B >= 1 columns; a single vector is the B = 1 case. It is
// generic over two callbacks, the certification apply and the solver's
// block solve, and refines only failing columns (one narrow blocked
// correction solve per step), which is what keeps certification cheap
// for the serving path's batched solves. Two entry points reach it:
//
//   guard_and_certify        — the one status step behind all four
//     solvers' checked solves: the non-finite guards, the residual, the
//     solver's own degradation codes and, when asked, the ladder, folded
//     into a single SolveStatus by one rule set. The distributed solvers
//     pass collective block solves: u/x are replicated on every rank, so
//     each rank reaches the identical refine/stop decision and the
//     correction solves stay collective.
//   certify_and_refine_block — per-column outcomes for a
//     FastDirectSolver batch (the serving engine's certified path).
#pragma once

#include "core/solver.hpp"

#include <cstdint>
#include <functional>
#include <vector>

namespace fdks::core {

/// Sampling decision: is solve number `solve_index` in-sample under
/// policy `p`? Index 0 is always in-sample (the first solve after a
/// factorization is the one most worth checking).
bool should_verify(const VerifyPolicy& p, std::uint64_t solve_index);

/// The guard-and-certify step of every checked solve. `x` is the
/// solver's finished answer to A X = U (B >= 1 columns); `fs` its
/// factorization outcome; `solve_code` its own pre-ladder outcome (the
/// worst reduced-system GMRES code for the hybrids, Ok otherwise);
/// `solve` its block solve Y = F⁻¹ B, the ladder's correction solve.
///
/// Worst column first, the status is: NonFinite for a NaN/Inf
/// right-hand side, then for a NaN/Inf solution; otherwise the largest
/// relative residual against (λI+K~) over the columns, then
/// `solve_code`, then ShiftedDiagonal from `fs`. With `run_ladder` set
/// and every column finite, the ladder then refines x in place and has
/// the last word: NotConverged when a column stays uncertified, else
/// Escalated when the GMRES rung ran or the pre-ladder code was a
/// failure — a certified answer never carries a failure code. Emits
/// guardrail.nonfinite_rhs and the ladder's keys when `emit_obs`
/// (distributed callers: rank 0 only).
SolveStatus guard_and_certify(const HMatrix& h, double lambda,
                              const Matrix& u, Matrix& x,
                              const FactorStatus& fs, SolveCode solve_code,
                              const VerifyPolicy& p, bool run_ladder,
                              std::function<Matrix(const Matrix&)> solve,
                              bool emit_obs = true,
                              const CancelToken* cancel = nullptr);

/// Run the ladder on a FastDirectSolver batch (x already solved) and
/// return one outcome per column, with the sampling decision folded in
/// (`solve_index` feeds should_verify; a skipped solve returns
/// measured == false and leaves x untouched). Emits
/// verify.checks/fail/residual/seconds and refine.steps/escalations.
/// Honors `cancel` between rungs and inside the GMRES rung
/// (CancelledError propagates).
std::vector<VerifyOutcome> certify_and_refine_block(
    const FastDirectSolver& s, const Matrix& b, Matrix& x,
    const VerifyPolicy& p, std::uint64_t solve_index = 0,
    const CancelToken* cancel = nullptr);

}  // namespace fdks::core
