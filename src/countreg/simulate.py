"""Synthetic count-regression data with known truth.

A :class:`SimDesign` declares the sample size, covariate generators, the true
coefficients (keyed by design-matrix label), the family, and a seed.
:func:`generate` draws a dataset reproducibly; :func:`recovery_study` refits
replications and summarizes bias, RMSE, and Wald coverage.  Replication
streams come from spawned seed sequences, so results are independent of how
the replications are scheduled and merge deterministically by index.
``_KIND_FIELDS`` lists each covariate kind's fields once: the kind check, the
keys a design's covariate may hold and ``SimDesign.to_dict`` all read it.

Designs serialize to a declarative JSON document::

    {
      "family": "HNB", "n": 40000, "seed": 7, "r": 0.6,
      "covariates": [
        {"name": "x1", "kind": "normal", "mean": 0, "sd": 1},
        {"name": "oa", "kind": "categorical",
         "levels": ["closed", "green"], "probs": [0.7, 0.3], "base": "closed"}
      ],
      "beta": {"intercept": 1.2, "x1": 0.4, "oa=green": 0.1},
      "delta": {"intercept": -2.0, "x1": 1.0, "oa=green": 0.0}
    }
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import NONNEGATIVE, NONNEGATIVE_INTEGER, NUMBER, OBJECT, POSITIVE, POSITIVE_INTEGER, PROBABILITY
from .data import STRING, Column, ConfigDoc, Dataset, DesignMatrix, EncodingConfig, PredictorSpec, encode_columns
from .distributions import _sample_hurdle, _sample_nb
from .exceptions import ConfigError
from .fit import _FAMILIES, FitOptions, _parameter_names, fit_family
from .likelihood import link_hurdle, link_mean

__all__ = ["CovariateSpec", "SimDesign", "generate", "recovery_study", "citation_scale_design"]

# The largest lam numpy's Generator.poisson draws from (numpy's POISSON_LAM_MAX).
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


# The fields a design document gives each covariate kind, besides its name
# and kind, in the order ``SimDesign.to_dict`` writes them.
_KIND_FIELDS = {
    "normal": ("mean", "sd"), "uniform": ("low", "high"), "integer": ("low", "high"),
    "bernoulli": ("p",), "poisson": ("lam",), "categorical": ("levels", "probs", "base"),
}


@dataclass(frozen=True)
class CovariateSpec:
    """One simulated covariate; ``kind`` selects the generator."""

    name: str
    kind: str  # a key of _KIND_FIELDS
    mean: float = 0.0
    sd: float = 1.0
    low: float = 0.0
    high: float = 1.0
    p: float = 0.5
    lam: float = 1.0
    levels: tuple[str, ...] = ()
    probs: tuple[float, ...] = ()
    base: str | None = None

    def __post_init__(self):
        if self.kind not in _KIND_FIELDS:
            raise ConfigError(f"unknown covariate kind {self.kind!r}")
        if self.kind == "categorical":
            if len(self.levels) < 2 or len(self.levels) != len(self.probs):
                raise ConfigError(f"categorical covariate {self.name!r} needs levels and probs")
            if abs(sum(self.probs) - 1.0) > 1e-9:
                raise ConfigError(f"probabilities of {self.name!r} must sum to 1")
        integral = float(self.low).is_integer() and float(self.high).is_integer()
        if self.kind == "integer" and not (integral and -(2**63) <= self.low <= self.high < 2**63 - 1):
            raise ConfigError(f"integer covariate {self.name!r} needs integral low <= high within int64")
        if self.kind == "uniform" and not math.isfinite(self.high - self.low):
            raise ConfigError(f"uniform covariate {self.name!r} needs a finite high - low")
        if self.kind == "poisson" and not 0.0 <= self.lam <= _POISSON_LAM_MAX:
            raise ConfigError(f"poisson covariate {self.name!r} needs lam in [0, {_POISSON_LAM_MAX:.4g}]")

    def draw(self, rng, n):
        if self.kind == "normal":
            return rng.normal(self.mean, self.sd, n)
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, n)
        if self.kind == "integer":
            return rng.integers(int(self.low), int(self.high) + 1, n).astype(float)
        if self.kind == "bernoulli":
            return rng.binomial(1, self.p, n).astype(float)
        if self.kind == "poisson":
            return rng.poisson(self.lam, n).astype(float)
        levels = np.array(self.levels, dtype=object)
        return levels[rng.choice(len(levels), size=n, p=np.asarray(self.probs))]

    def predictor_spec(self) -> PredictorSpec:
        if self.kind == "categorical":
            base = self.base if self.base is not None else self.levels[0]
            return PredictorSpec(name=self.name, kind="categorical", base=base, levels=self.levels)
        if self.kind == "bernoulli":
            return PredictorSpec(name=self.name, kind="binary")
        return PredictorSpec(name=self.name, kind="numeric")


_COVARIATE_NUMBERS = {
    "mean": NUMBER, "sd": NONNEGATIVE, "low": NUMBER, "high": NUMBER, "p": PROBABILITY, "lam": NONNEGATIVE
}
_DESIGN_KEYS = ("family", "n", "seed", "response", "covariates", "beta", "r", "delta", "recovery")


def _covariate(c: ConfigDoc) -> CovariateSpec:
    """The covariate of design entry ``c``: its name, its kind and that kind's fields."""
    spec = CovariateSpec(
        name=c.get("name", STRING),
        kind=c.get("kind", STRING),
        levels=c.each("levels", STRING, ()),
        probs=c.each("probs", PROBABILITY, ()),
        base=c.get("base", STRING, None),
        **{key: float(value) for key, value in c.entries(_COVARIATE_NUMBERS).items()},
    )
    c.only(("name", "kind", *_KIND_FIELDS[spec.kind]))
    return spec


@dataclass(frozen=True)
class SimDesign:
    family: str
    n: int
    covariates: tuple[CovariateSpec, ...]
    beta: dict
    seed: int
    r: float | None = None
    delta: dict | None = None
    response_name: str = "y"
    # The recovery study a design document asks for; to_dict leaves it out.
    replications: int | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.family in ("NB", "HNB") and (self.r is None or self.r <= 0.0):
            raise ConfigError("NB and HNB designs need r > 0")
        if self.family == "HNB" and not self.delta:
            raise ConfigError("HNB designs need hurdle coefficients delta")
        try:
            _true_parameter_map(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def encoding_config(self) -> EncodingConfig:
        return EncodingConfig(
            response=self.response_name,
            predictors=tuple(c.predictor_spec() for c in self.covariates),
        )

    def truth_record(self) -> dict:
        """``to_dict`` without the response name and the covariates."""
        return {key: value for key, value in self.to_dict().items() if key not in ("response", "covariates")}

    def to_dict(self) -> dict:
        doc = {
            "family": self.family,
            "n": self.n,
            "seed": self.seed,
            "response": self.response_name,
            "covariates": [],
            "beta": dict(self.beta),
        }
        for cov in self.covariates:
            entry = {"name": cov.name, "kind": cov.kind}
            entry.update((key, getattr(cov, key)) for key in _KIND_FIELDS[cov.kind])
            doc["covariates"].append({key: list(v) if isinstance(v, tuple) else v for key, v in entry.items()})
        if self.r is not None:
            doc["r"] = self.r
        if self.delta is not None:
            doc["delta"] = dict(self.delta)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SimDesign":
        if not isinstance(doc, dict):
            raise ConfigError(f"the simulation design must be a JSON object, not {type(doc).__name__}")
        doc = ConfigDoc(doc).only(_DESIGN_KEYS, "the simulation design")
        covariates = tuple(map(_covariate, doc.each("covariates", OBJECT)))
        r = doc.get("r", POSITIVE, None)
        delta = doc.get("delta", OBJECT, None)
        recovery = doc.get("recovery", OBJECT, None)
        if recovery is not None:
            recovery.only(("replications",))
        return cls(
            family=doc.get("family", STRING),
            n=doc.get("n", POSITIVE_INTEGER),
            covariates=covariates,
            beta=doc.get("beta", OBJECT).entries(NUMBER),
            seed=doc.get("seed", NONNEGATIVE_INTEGER),
            r=None if r is None else float(r),
            delta=None if delta is None else delta.entries(NUMBER),
            response_name=doc.get("response", STRING, "y"),
            replications=None if recovery is None else recovery.get("replications", POSITIVE_INTEGER),
        )


def _coefficients_for(design_matrix: DesignMatrix, named: dict, what: str) -> np.ndarray:
    missing = [label for label in design_matrix.labels if label not in named]
    if missing:
        raise ConfigError(f"{what} does not cover design columns {missing}")
    extra = set(named) - set(design_matrix.labels)
    if extra:
        raise ConfigError(f"{what} names unknown columns {sorted(extra)}")
    return np.array([float(named[label]) for label in design_matrix.labels])


def _draw_response(design: SimDesign, rng, X: DesignMatrix):
    """Counts under the design's family; the hurdle equation shares ``X``."""
    beta = _coefficients_for(X, design.beta, "beta")
    theta = link_mean(X.X, beta)
    if design.family == "HNB":
        delta = _coefficients_for(X, design.delta, "delta")
        # A positive row's count is drawn again until it is positive, about
        # 1 / P(y > 0) times, so a row of a smaller chance would take too long.
        chance = float(np.min(-np.expm1(-np.log1p(design.r * theta) / design.r)))
        if chance < 1e-4:
            raise ConfigError(f"beta and r give a row P(y > 0) = {chance:.3g}, too rare to draw (below 1e-4)")
    try:
        if design.family == "P":
            return rng.poisson(theta).astype(np.int64)
        if design.family == "NB":
            return _sample_nb(rng, theta, design.r)
        return _sample_hurdle(rng, theta, design.r, link_hurdle(X.X, delta))
    except ValueError:  # numpy's Poisson sampler takes means below about 9.2e18
        raise ConfigError("beta and r give counts too large to draw") from None


def _draw(design: SimDesign, seed_sequence):
    """(Dataset, its encoded design matrix) drawn from one seed sequence."""
    rng = np.random.default_rng(seed_sequence)
    predictors = design.encoding_config().predictors
    draws = (cov.draw(rng, design.n) for cov in design.covariates)
    columns = tuple(Column(spec.name, spec.kind, values) for spec, values in zip(predictors, draws))
    X = encode_columns(columns, predictors, design.n)
    y = _draw_response(design, rng, X)
    return Dataset(y=y, columns=columns, response_name=design.response_name), X


def generate(design: SimDesign, seed_sequence=None):
    """Draw (Dataset, truth record) from the design; reproducible by seed."""
    if seed_sequence is None:
        seed_sequence = np.random.SeedSequence(design.seed)
    dataset, _ = _draw(design, seed_sequence)
    return dataset, design.truth_record()


def _true_parameter_map(design: SimDesign) -> dict:
    hurdle = design.delta if design.family == "HNB" else {}
    values = (*design.beta.values(), *(() if design.family == "P" else (design.r,)), *hurdle.values())
    return dict(zip(_parameter_names(design.family, design.beta, hurdle), values, strict=True))


def _run_replication(args):
    design, rep, options = args
    child = np.random.SeedSequence(entropy=design.seed, spawn_key=(rep,))
    try:
        dataset, X = _draw(design, child)
        model = fit_family(design.family, X.X, dataset.y, options=options, labels=X.labels)
    except Exception as exc:  # noqa: BLE001 - failures are tallied, not fatal
        return rep, None, f"{type(exc).__name__}: {exc}"
    estimates = {name: model.estimates[name] for name in model.names}
    ses = model.std_errors()
    return rep, (estimates, ses, model.converged), None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(threads: int | None, jobs: int, cpus: int) -> int:
    """Worker processes for ``jobs`` jobs: ``threads``, or ``cpus`` when it is
    None, at most one per job and at least one."""
    return max(1, min(cpus if threads is None else threads, jobs))


def _pool_map(fn, jobs, workers: int):
    """``fn`` over ``jobs``, yielded in job order as the results arrive.

    With one worker the jobs run in the calling process.  Otherwise they go
    to one pool of ``workers`` processes under the platform's default start
    method, in about four chunks per worker.  This is the one place countreg
    starts worker processes.
    """
    if workers == 1:
        yield from map(fn, jobs)
        return
    # Imported here: it costs every CLI process about 20 ms otherwise.
    from concurrent.futures import ProcessPoolExecutor

    # About four chunks per worker: one job per message costs each job a
    # round trip, while a few chunks still balance the load.
    chunksize = math.ceil(len(jobs) / (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, jobs, chunksize=chunksize)


def recovery_study(
    design: SimDesign,
    replications: int,
    options: FitOptions | None = None,
    threads: int | None = 1,
) -> dict:
    """Bias, RMSE, and 95% Wald coverage over independent replications.

    Fit failures are counted and reported, not fatal.  Results are merged in
    replication order, so they do not depend on scheduling.  ``threads``
    worker processes share the replications (None: one per usable CPU); the
    default stays serial, since a worker pool under the spawn or forkserver
    start method needs the calling script to guard its ``__main__``.
    """
    if replications < 1:
        raise ConfigError("replications must be at least 1")
    truth = _true_parameter_map(design)
    jobs = [(design, rep, options) for rep in range(replications)]
    workers = _workers(threads, replications, _usable_cpus())
    raw = list(_pool_map(_run_replication, jobs, workers))

    failures = [{"replication": rep, "error": err} for rep, _, err in raw if err]
    kept = [(rep, payload) for rep, payload, err in raw if not err]
    parameters = {}
    for name, true_value in truth.items():
        estimates = np.array([payload[0][name] for _, payload in kept])
        ses = np.array([payload[1][name] for _, payload in kept])
        covered = np.abs(estimates - true_value) <= 1.959963984540054 * ses
        parameters[name] = {
            "truth": true_value,
            "mean_estimate": float(np.mean(estimates)) if kept else None,
            "bias": float(np.mean(estimates) - true_value) if kept else None,
            "rmse": float(np.sqrt(np.mean((estimates - true_value) ** 2))) if kept else None,
            "coverage_95": float(np.mean(covered)) if kept else None,
        }
    replication_rows = [
        {
            "replication": rep,
            "converged": payload[2],
            "estimates": payload[0],
            "std_errors": payload[1],
        }
        for rep, payload in kept
    ]
    flags = [
        name
        for name, stats in parameters.items()
        if stats["coverage_95"] is not None and stats["coverage_95"] < 0.90
    ]
    return {
        "replications": replications,
        "completed": len(kept),
        "failures": failures,
        "parameters": parameters,
        "degraded_coverage": flags,
        "replication_estimates": replication_rows,
    }


def citation_scale_design(n: int = 43190, seed: int = 20240301) -> SimDesign:
    """A design shaped like a large citation dataset.

    Thirty covariates (access-type and discipline style indicators, an
    article-age integer, skewed mention counts, and standardized journal
    metrics) with mild effects, overdispersion r = 0.64, and a mean count in
    the tens; useful as a realistic load test.
    """
    rng = np.random.default_rng(987654321)
    covariates = []
    beta = {"intercept": 2.8}
    frequencies = (0.30, 0.03, 0.02, 0.10, 0.21, 0.10, 0.30, 0.43, 0.44, 0.25, 0.14, 0.02)
    for i, p in enumerate(frequencies, start=1):
        name = f"flag{i}"
        covariates.append(CovariateSpec(name=name, kind="bernoulli", p=p))
        beta[name] = round(float(rng.uniform(-0.25, 0.25)), 4)
    covariates.append(CovariateSpec(name="age", kind="integer", low=0, high=7))
    beta["age"] = -0.13
    for i, lam in enumerate((0.6, 0.2, 0.45, 0.1, 0.15, 0.07), start=1):
        name = f"mentions{i}"
        covariates.append(CovariateSpec(name=name, kind="poisson", lam=lam))
        beta[name] = round(float(rng.uniform(-0.05, 0.08)), 4)
    for i in range(1, 12):
        name = f"metric{i}"
        covariates.append(CovariateSpec(name=name, kind="normal", mean=0.0, sd=1.0))
        beta[name] = round(float(rng.uniform(-0.2, 0.2)), 4)
    return SimDesign(
        family="NB",
        n=n,
        covariates=tuple(covariates),
        beta=beta,
        seed=seed,
        r=0.64,
        response_name="cites",
    )
