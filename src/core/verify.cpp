// Certification + escalation ladder implementation (see verify.hpp).
#include "core/verify.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "iterative/gmres.hpp"
#include "la/blas1.hpp"
#include "obs/obs.hpp"

namespace fdks::core {

bool should_verify(const VerifyPolicy& p, std::uint64_t solve_index) {
  switch (p.mode) {
    case VerifyMode::Off:
      return false;
    case VerifyMode::Always:
      return true;
    case VerifyMode::Sample: {
      const std::uint64_t k =
          p.sample_every > 0 ? static_cast<std::uint64_t>(p.sample_every) : 1;
      return solve_index % k == 0;
    }
  }
  return false;
}

namespace {

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

/// The ladder's callbacks for operator `h`: apply is y = (λI+K) x
/// through the operator policy `p` certifies against
/// (VerifyPolicy::Operator); h and p must outlive the returned ops.
VerifyOps make_ops(const HMatrix& h, double lambda, const VerifyPolicy& p,
                   std::function<Matrix(const Matrix&)> solve,
                   bool emit_obs) {
  VerifyOps ops;
  ops.apply = [&h, lambda, &p](std::span<const double> in,
                               std::span<double> y) {
    if (p.op == VerifyPolicy::Operator::Treecode)
      h.apply_source(in, y, lambda);
    else
      h.apply(in, y, lambda);
  };
  ops.solve = std::move(solve);
  ops.emit_obs = emit_obs;
  return ops;
}

double elapsed_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// r = b − A x; returns ‖r‖/‖b‖ (‖r‖ when b = 0).
double residual_into(const VerifyOps& ops, std::span<const double> b,
                     std::span<const double> x, std::span<double> r) {
  ops.apply(x, r);
  for (size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  const double bnorm = la::nrm2(b);
  const double rnorm = la::nrm2(r);
  return bnorm > 0.0 ? rnorm / bnorm : rnorm;
}

bool certified(double rel, const VerifyPolicy& p) {
  return std::isfinite(rel) && rel <= p.target_residual;
}

/// Rung 2: factor-preconditioned GMRES on the full certification
/// operator. The factor accelerates Krylov convergence; the reported
/// residual stays the true residual of A x = b (right preconditioning).
/// Adopts the GMRES iterate into x only when it measures better than
/// what the ladder already has. Returns the (possibly improved) rel.
double escalate_rung(const VerifyOps& ops, const VerifyPolicy& p,
                     std::span<const double> b, std::span<double> x,
                     double rel, const CancelToken* cancel) {
  if (ops.emit_obs) obs::add("refine.escalations");
  iter::GmresOptions go;
  go.max_iters = p.escalate_max_iters;
  go.restart = std::min(60, std::max(1, p.escalate_max_iters));
  go.rtol = p.target_residual;
  go.record_history = false;
  go.cancel = cancel;
  go.right_precond = [&ops](std::span<const double> in,
                            std::span<double> y) {
    Matrix m(static_cast<index_t>(in.size()), 1);
    std::copy(in.begin(), in.end(), m.data());
    const Matrix q = ops.solve(m);
    std::copy(q.data(), q.data() + q.size(), y.begin());
  };
  const iter::GmresResult gr =
      iter::gmres(static_cast<index_t>(b.size()), ops.apply, b, go);
  // Trust a measured residual, not the Givens estimate: the candidate
  // only replaces the incumbent when it is verifiably better.
  std::vector<double> scratch(b.size(), 0.0);
  const double cand = residual_into(ops, b, gr.x, scratch);
  if (std::isfinite(cand) && (!std::isfinite(rel) || cand < rel)) {
    std::copy(gr.x.begin(), gr.x.end(), x.begin());
    return cand;
  }
  return rel;
}

/// Certify every column of x (solutions of A X = B already computed by
/// the caller), then refine ONLY the failing columns — each refinement
/// step gathers their residuals into one narrow block, runs a single
/// blocked correction solve, and scatters the updates back (per-column
/// blame, batched repair). Columns that stagnate above target escalate
/// individually through the GMRES rung. Returns one outcome per column.
/// The sampling decision is the caller's — this always measures.
std::vector<VerifyOutcome> certify_and_refine_block_ops(
    const VerifyOps& ops, const Matrix& b, Matrix& x, const VerifyPolicy& p,
    const CancelToken* cancel) {
  const index_t n = b.rows();
  const index_t cols = b.cols();
  std::vector<VerifyOutcome> outs(static_cast<size_t>(cols));
  const auto t0 = std::chrono::steady_clock::now();

  const auto col_span = [n](const Matrix& m, index_t j) {
    return std::span<const double>(m.col(j), static_cast<size_t>(n));
  };
  const auto col_span_mut = [n](Matrix& m, index_t j) {
    return std::span<double>(m.col(j), static_cast<size_t>(n));
  };

  // Measure every column; the failing set is what the ladder works on.
  Matrix r(n, cols);
  std::vector<double> rel(static_cast<size_t>(cols), 0.0);
  std::vector<index_t> failing;
  for (index_t j = 0; j < cols; ++j) {
    outs[static_cast<size_t>(j)].measured = true;
    if (ops.emit_obs) obs::add("verify.checks");
    rel[static_cast<size_t>(j)] = residual_into(
        ops, col_span(b, j), col_span(x, j), col_span_mut(r, j));
    if (!certified(rel[static_cast<size_t>(j)], p)) {
      if (ops.emit_obs) obs::add("verify.fail");
      if (std::isfinite(rel[static_cast<size_t>(j)]))
        failing.push_back(j);  // NaN columns go straight past rung 1.
    }
  }

  // Rung 1: fixed-point refinement x += F⁻¹(b − A x) with one narrow
  // blocked correction solve per step over the still-failing columns
  // (per-column blame, batched repair). Contraction factor ≈ ‖I − F⁻¹A‖,
  // so each step multiplies the error by the factor's approximation
  // quality; a column stops on target or stagnation.
  for (int step = 0; step < p.max_refine_steps && !failing.empty();
       ++step) {
    if (cancel) cancel->check("core::certify_and_refine_block");
    Matrix rf(n, static_cast<index_t>(failing.size()));
    for (size_t i = 0; i < failing.size(); ++i)
      std::copy(r.col(failing[i]), r.col(failing[i]) + n,
                rf.col(static_cast<index_t>(i)));
    const Matrix dxf = ops.solve(rf);
    std::vector<index_t> still;
    for (size_t i = 0; i < failing.size(); ++i) {
      const index_t j = failing[i];
      const double* dx = dxf.col(static_cast<index_t>(i));
      double* xj = x.col(j);
      for (index_t k = 0; k < n; ++k) xj[k] += dx[k];
      const double prev = rel[static_cast<size_t>(j)];
      rel[static_cast<size_t>(j)] = residual_into(
          ops, col_span(b, j), col_span(x, j), col_span_mut(r, j));
      if (ops.emit_obs) obs::add("refine.steps");
      ++outs[static_cast<size_t>(j)].refine_steps;
      const double now = rel[static_cast<size_t>(j)];
      if (certified(now, p)) continue;
      if (!std::isfinite(now) || now >= p.min_step_improvement * prev) {
        if (!std::isfinite(now) || now > prev) {
          // The step made things worse: roll it back.
          for (index_t k = 0; k < n; ++k) xj[k] -= dx[k];
          rel[static_cast<size_t>(j)] = residual_into(
              ops, col_span(b, j), col_span(x, j), col_span_mut(r, j));
        }
        continue;  // Stagnated: falls through to the GMRES rung below.
      }
      still.push_back(j);
    }
    failing.swap(still);
  }

  // Rung 2, factor-preconditioned GMRES per column: a Krylov space is
  // per-RHS.
  for (index_t j = 0; j < cols; ++j) {
    if (certified(rel[static_cast<size_t>(j)], p) || !p.escalate) continue;
    if (cancel) cancel->check("core::certify_and_refine_block");
    rel[static_cast<size_t>(j)] =
        escalate_rung(ops, p, col_span(b, j), col_span_mut(x, j),
                      rel[static_cast<size_t>(j)], cancel);
    ++outs[static_cast<size_t>(j)].escalations;
  }

  for (index_t j = 0; j < cols; ++j) {
    VerifyOutcome& o = outs[static_cast<size_t>(j)];
    o.residual = rel[static_cast<size_t>(j)];
    o.certified = certified(o.residual, p);
    if (ops.emit_obs && std::isfinite(o.residual))
      obs::hist("verify.residual", o.residual);
  }
  if (ops.emit_obs) obs::hist("verify.seconds", elapsed_seconds(t0));
  return outs;
}

}  // namespace

SolveStatus guard_and_certify(const HMatrix& h, double lambda,
                              const Matrix& u, Matrix& x,
                              const FactorStatus& fs, SolveCode solve_code,
                              const VerifyPolicy& p, bool run_ladder,
                              std::function<Matrix(const Matrix&)> solve,
                              bool emit_obs, const CancelToken* cancel) {
  const auto n = static_cast<size_t>(u.rows());
  SolveStatus st;
  st.lambda_effective = fs.lambda_effective;
  st.shifted_nodes = fs.shifted_nodes;
  for (index_t j = 0; j < u.cols() && st.code == SolveCode::Ok; ++j) {
    const std::span<const double> uc(u.col(j), n);
    const std::span<const double> xc(x.col(j), n);
    if (!all_finite(uc)) {
      st.code = SolveCode::NonFinite;
      st.detail = "right-hand side contains NaN/Inf";
      if (emit_obs) obs::add("guardrail.nonfinite_rhs");
    } else if (!all_finite(xc)) {
      st.code = SolveCode::NonFinite;
      st.detail = fs.code == FactorCode::NonFinite
                      ? "solution contains NaN/Inf (factorization was "
                        "already non-finite)"
                      : "solution contains NaN/Inf";
    } else if (!run_ladder) {  // The ladder measures every column itself.
      st.residual = std::max(st.residual, h.relative_residual(xc, uc, lambda));
    }
  }
  if (st.code != SolveCode::Ok) return st;
  if (solve_code != SolveCode::Ok) {
    st.code = solve_code;
    st.detail = "reduced-system GMRES did not converge";
  } else if (fs.code == FactorCode::ShiftedDiagonal) {
    st.code = SolveCode::ShiftedDiagonal;
  }
  if (!run_ladder) return st;

  bool uncertified = false;
  const VerifyOps ops = make_ops(h, lambda, p, std::move(solve), emit_obs);
  for (const VerifyOutcome& vo :
       certify_and_refine_block_ops(ops, u, x, p, cancel)) {
    if (!(vo.residual <= st.residual)) st.residual = vo.residual;  // NaN too.
    uncertified = uncertified || !vo.certified;
    st.escalations += vo.escalations;
  }
  if (uncertified) {
    st.code = SolveCode::NotConverged;
    st.detail = "certified residual misses the verify target after the "
                "escalation ladder";
  } else if (st.escalations > 0 || !st.ok()) {
    st.code = SolveCode::Escalated;
    st.detail.clear();
  }
  return st;
}

std::vector<VerifyOutcome> certify_and_refine_block(
    const FastDirectSolver& s, const Matrix& b, Matrix& x,
    const VerifyPolicy& p, std::uint64_t solve_index,
    const CancelToken* cancel) {
  if (!should_verify(p, solve_index))
    return std::vector<VerifyOutcome>(static_cast<size_t>(b.cols()));
  const VerifyOps ops = make_ops(
      s.factor_tree().hmatrix(), s.lambda(), p,
      [&s, cancel](const Matrix& rhs) { return s.solve(rhs, cancel); },
      /*emit_obs=*/true);
  return certify_and_refine_block_ops(ops, b, x, p, cancel);
}

}  // namespace fdks::core
