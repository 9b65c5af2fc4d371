// p2pgen — concrete distribution families used by the IMC'04 workload model.
//
// Parameterizations follow the paper's Appendix:
//   * LogNormal(mu, sigma):   ln X ~ N(mu, sigma^2)
//   * Weibull(alpha, lambda): F(x) = 1 - exp(-lambda * x^alpha)
//     (shape alpha, rate-like lambda; this is the parameterization that
//     reproduces the magnitudes quoted in Table A.3)
//   * Pareto(alpha, beta):    F(x) = 1 - (beta / x)^alpha for x >= beta
//   * Exponential(rate), Uniform(lo, hi) as usual
// plus two composition operators:
//   * Truncated(dist, lo, hi) — dist conditioned on [lo, hi]
//   * Mixture(w, a, b)        — draw from a with probability w, else b
// and the convenience factory bimodal_split() which builds the paper's
// "body below s, tail above s" models (Tables A.1, A.3, A.4).
#pragma once

#include <vector>

#include "stats/distribution.hpp"

namespace p2pgen::stats {

/// Lognormal distribution: ln X ~ N(mu, sigma^2).  sigma > 0.
class LogNormal final : public Distribution {
 public:
  LogNormal(double mu, double sigma);

  double sample(Rng& rng) const override;
  double pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override;
  std::string name() const override;

  double mu() const noexcept { return mu_; }
  double sigma() const noexcept { return sigma_; }

 private:
  double mu_;
  double sigma_;
};

/// Weibull distribution with F(x) = 1 - exp(-lambda * x^alpha).
/// alpha > 0 (shape), lambda > 0 (rate-like scale).
class Weibull final : public Distribution {
 public:
  Weibull(double alpha, double lambda);

  double sample(Rng& rng) const override;
  double pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override;
  std::string name() const override;

  double alpha() const noexcept { return alpha_; }
  double lambda() const noexcept { return lambda_; }

 private:
  double alpha_;
  double lambda_;
};

/// Pareto distribution with F(x) = 1 - (beta/x)^alpha for x >= beta.
/// alpha > 0 (tail index), beta > 0 (scale / left endpoint).
class Pareto final : public Distribution {
 public:
  Pareto(double alpha, double beta);

  double sample(Rng& rng) const override;
  double pdf(double x) const override;
  double cdf(double x) const override;
  double ccdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override;  // +inf when alpha <= 1
  std::string name() const override;

  double alpha() const noexcept { return alpha_; }
  double beta() const noexcept { return beta_; }

 private:
  double alpha_;
  double beta_;
};

/// Exponential distribution with the given rate (> 0).
class Exponential final : public Distribution {
 public:
  explicit Exponential(double rate);

  double sample(Rng& rng) const override;
  double pdf(double x) const override;
  double cdf(double x) const override;
  double ccdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override;
  std::string name() const override;

  double rate() const noexcept { return rate_; }

 private:
  double rate_;
};

/// Continuous uniform distribution on [lo, hi), lo < hi.
class Uniform final : public Distribution {
 public:
  Uniform(double lo, double hi);

  double sample(Rng& rng) const override;
  double pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override;
  std::string name() const override;

 private:
  double lo_;
  double hi_;
};

/// A base distribution conditioned on the interval [lo, hi].
/// Sampling uses the exact inverse-CDF restriction (no rejection loops).
/// Requires cdf(hi) > cdf(lo).
class Truncated final : public Distribution {
 public:
  Truncated(DistributionPtr base, double lo, double hi);

  double sample(Rng& rng) const override;
  double pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override;  // computed by adaptive Simpson on pdf
  std::string name() const override;

  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }

 private:
  DistributionPtr base_;
  double lo_;
  double hi_;
  double cdf_lo_;
  double cdf_hi_;
};

/// Finite two-component mixture: component a with probability w, else b.
class Mixture final : public Distribution {
 public:
  Mixture(double weight_a, DistributionPtr a, DistributionPtr b);

  double sample(Rng& rng) const override;
  double pdf(double x) const override;
  double cdf(double x) const override;
  double ccdf(double x) const override;
  double quantile(double p) const override;  // bisection on cdf
  double mean() const override;
  std::string name() const override;

  double weight_a() const noexcept { return weight_a_; }

 private:
  double weight_a_;
  DistributionPtr a_;
  DistributionPtr b_;
};

/// Builds the paper's bimodal "body/tail" model: with probability
/// body_weight draw from `body` truncated to [body_lo, split], otherwise
/// from `tail` truncated to [split, +inf).  This is how Tables A.1, A.3
/// and A.4 compose their two components ("Body: <= s (w%)", "Tail: > s");
/// some table rows give an explicit body lower bound (e.g. Table A.3
/// non-peak: "Body: 64-120 seconds"), hence body_lo.
DistributionPtr bimodal_split(DistributionPtr body, DistributionPtr tail,
                              double split, double body_weight,
                              double body_lo = 0.0);

/// Convenience shared_ptr factories.
DistributionPtr make_lognormal(double mu, double sigma);
DistributionPtr make_weibull(double alpha, double lambda);
DistributionPtr make_pareto(double alpha, double beta);
DistributionPtr make_exponential(double rate);
DistributionPtr make_uniform(double lo, double hi);

}  // namespace p2pgen::stats
