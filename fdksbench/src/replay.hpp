// Solve-phase replay: Algorithm II.3 re-run from outside the library on
// a solver's own factors, through public calls only, with each of its
// four phases timed separately:
//
//   leaf  — la::lu_solve / la::chol_solve on NodeFactor::leaf_*
//   v     — KernelBlockOp::apply / apply_block on v_lr, v_rl
//   z     — la::lu_solve on z_lu
//   w     — FactorTree::apply_phat
//
// B = 1 takes the library's vector overloads (the path of a single-RHS
// FastDirectSolver::solve), B > 1 the block overloads. The replayed
// answer must equal the library's own solve, which the caller checks.
#pragma once

#include <cstddef>

#include "core/solver.hpp"
#include "harness.hpp"

namespace fdksbench {

struct PhaseTimes {
  double leaf = 0.0;
  double v = 0.0;
  double z = 0.0;
  double w = 0.0;
  double total() const { return leaf + v + z + w; }
};

/// Solve (lambda I + K~) X = U on the factors of `ft` (U, X in original
/// point order), accumulating phase times into `t`.
Matrix replay_solve(const fdks::core::FactorTree& ft, const Matrix& u,
                    PhaseTimes& t);

/// Bytes of stored V blocks (StoredGemv scheme; 0 for matrix-free GSKS).
std::size_t stored_v_bytes(const fdks::core::FactorTree& ft);

/// Kernel evaluations one V apply performs (sum of |rows| x |cols| over
/// the internal nodes' V operators).
double v_kernel_evals(const fdks::core::FactorTree& ft);

}  // namespace fdksbench
