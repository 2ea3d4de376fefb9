"""The benchmark's workloads: run settings, input files and populations.

Each workload is one `eqc-bench bench` experiment file plus, for the text
workload, a synthetic document-term corpus. Inputs depend only on the
workload, its size and the seed, so the same seed gives the same files.

A size is "full" (what the benchmark measures) or "smoke" (a few seconds,
for the benchmark's own tests). Smoke sizes keep each workload's
population and shrink the replications, the grid and the test set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Workload:
    classifiers: tuple[str, ...]
    settings: dict  # size -> experiment-file keys, without seed and paths

    def expected_tasks(self, size: str) -> list[tuple[str, int, int | None]]:
        """(classifier, replication, outer fold) of every task in one round."""
        keys = self.settings[size]
        folds = [None] if keys["mode"] == "scenario" else range(int(keys["outer_folds"]))
        return [(c, r, f) for c in self.classifiers
                for r in range(int(keys["replications"])) for f in folds]


T3_CLASSIFIERS = ("qc", "mc", "emc", "eqc-ridge", "eqc-logistic")
HETERO_CLASSIFIERS = ("eqc-lasso", "eqc-hinge", "eqc-multiclass")
TEXT_CLASSIFIERS = ("qc", "mc", "emc")

# Heterogeneous shift: at the family default (0.14) the hinge on this
# reduced grid scored 0.49 on one seed in four, too near chance for the
# above-chance check to hold on every seed; at 0.2 all three learners
# stay between 0.13 and 0.38 (Bayes error 0.029).
HETERO_DELTA = 0.2

# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "t3-newton": Workload(
        T3_CLASSIFIERS,
        {
            "full": dict(mode="scenario", family="t3", n_train=100, p=50, delta=0.32,
                         test_size=2000, replications=4),
            "smoke": dict(mode="scenario", family="t3", n_train=100, p=50, delta=0.32,
                          test_size=500, replications=1, theta_grid="0.3,0.5,0.7",
                          alpha_grid="0.01,1", folds=2),
        },
    ),
    "hetero-solvers": Workload(
        HETERO_CLASSIFIERS,
        {
            "full": dict(mode="scenario", family="heterogeneous", n_train=100, p=50,
                         noise_fraction=0.5, delta=HETERO_DELTA, test_size=2000,
                         replications=6, theta_grid="0.05,0.5,0.95",
                         alpha_grid="0.003,0.1,3", folds=3),
            "smoke": dict(mode="scenario", family="heterogeneous", n_train=100, p=50,
                          noise_fraction=0.5, delta=HETERO_DELTA, test_size=1000,
                          replications=1, theta_grid="0.05,0.5,0.95",
                          alpha_grid="0.003,0.1,3", folds=3),
        },
    ),
    "text-fisher": Workload(
        TEXT_CLASSIFIERS,
        {
            "full": dict(mode="dtm", docs=2000, terms=4000, min_docs=3,
                         feature_selection="fisher", fisher_l=50, outer_folds=5,
                         replications=1, theta_grid="range:0.1:0.9:9",
                         alpha_grid="logrange:1e-3:1e1:5", folds=3),
            "smoke": dict(mode="dtm", docs=400, terms=1000, min_docs=3,
                          feature_selection="fisher", fisher_l=30, outer_folds=3,
                          replications=1, theta_grid="0.3,0.5,0.7",
                          alpha_grid="0.01,1", folds=2),
        },
    ),
}

# Text population: term j (0-based) has base Poisson rate ZIPF_SCALE/(j+1)^ZIPF_EXPONENT
# per document; the terms at INFORMATIVE_TERMS have their class-2 rate
# multiplied (even positions) or divided (odd positions) by RATE_FACTOR. The
# population is fixed; the seed draws the labels and the counts.
ZIPF_SCALE = 25.0
ZIPF_EXPONENT = 1.1
INFORMATIVE_TERMS = np.arange(7, 400, 4)
RATE_FACTOR = 1.5


def text_rates(n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-term Poisson rates of class 1 and class 2."""
    lam1 = ZIPF_SCALE / np.arange(1, n_terms + 1) ** ZIPF_EXPONENT
    lam2 = lam1.copy()
    lam2[INFORMATIVE_TERMS[0::2]] *= RATE_FACTOR
    lam2[INFORMATIVE_TERMS[1::2]] /= RATE_FACTOR
    return lam1, lam2


def text_corpus(seed: int, n_docs: int, n_terms: int):
    """Labels (balanced, shuffled) and sparse counts as 0-based triples.

    Counts are drawn in blocks of documents so the dense block stays small
    next to what the program itself allocates.
    """
    rng = np.random.default_rng([seed, 0x7E47])
    y = np.repeat([1, 2], [n_docs // 2, n_docs - n_docs // 2])
    rng.shuffle(y)
    lam = text_rates(n_terms)
    docs, terms, counts = [], [], []
    block = 100
    for start in range(0, n_docs, block):
        yb = y[start:start + block]
        X = rng.poisson(np.where(yb[:, None] == 1, lam[0], lam[1]))
        d, t = np.nonzero(X)
        docs.append(d + start)
        terms.append(t)
        counts.append(X[d, t])
    return y, np.concatenate(docs), np.concatenate(terms), np.concatenate(counts)


def terms_kept(seed: int, keys: dict) -> int:
    """Number of corpus terms in at least min_docs documents."""
    _, _, terms, _ = text_corpus(seed, keys["docs"], keys["terms"])
    return int(np.sum(np.bincount(terms, minlength=keys["terms"]) >= keys["min_docs"]))


def write_inputs(workload: Workload, size: str, seed: int, run_dir: Path) -> Path:
    """Write the experiment file (and the corpus) under run_dir; return its path."""
    run_dir.mkdir(parents=True, exist_ok=True)
    keys = dict(workload.settings[size])
    if keys["mode"] == "dtm":
        n_docs, n_terms = keys.pop("docs"), keys.pop("terms")
        y, docs, terms, counts = text_corpus(seed, n_docs, n_terms)
        dtm, labels = run_dir / "corpus.dtm", run_dir / "corpus.labels"
        with open(dtm, "w") as fh:
            fh.write(f"{n_docs} {n_terms} {docs.size}\n")
            fh.writelines(f"{d + 1} {t + 1} {c}\n"
                          for d, t, c in zip(docs.tolist(), terms.tolist(), counts.tolist()))
        with open(labels, "w") as fh:
            fh.writelines(f"{v}\n" for v in y.tolist())
        keys.update(dtm=dtm, labels=labels)
    keys.update(classifiers=",".join(workload.classifiers), seed=seed, threads=1,
                out=run_dir / "out")
    path = run_dir / "experiment.cfg"
    with open(path, "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in keys.items())
    return path


# Raw marginals of the heterogeneous family, by column index mod 5:
# W, exp(W), log|W|, W^2, |W|^0.5 with W standard normal.
_HETERO_DRAW = (
    lambda w: w,
    np.exp,
    lambda w: np.log(np.abs(w)),
    lambda w: w * w,
    lambda w: np.sqrt(np.abs(w)),
)


def _hetero_logpdf(i: int, r: np.ndarray) -> np.ndarray:
    from scipy import stats

    with np.errstate(divide="ignore", invalid="ignore"):
        if i == 0:
            return stats.norm.logpdf(r)
        if i == 1:
            return stats.lognorm.logpdf(r, s=1.0)
        if i == 2:  # |W| = e^r, two branches
            return math.log(2.0) + stats.norm.logpdf(np.exp(r)) + r
        if i == 3:
            return stats.chi2.logpdf(r, df=1)
        return np.where(r > 0, np.log(4.0 * r) + stats.norm.logpdf(r * r), -np.inf)


def bayes_error(workload: Workload, size: str, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo Bayes error (and its standard error) of the population.

    Computed from the true class densities, apart from the program:
    independent columns, equal priors, class 2 shifted by delta on the raw
    scale of each informative column (a common affine standardization does
    not change the likelihood ratio), noise columns carrying nothing. For
    the corpus, independent Poisson counts with the rates of text_rates.
    """
    keys = workload.settings[size]
    rng = np.random.default_rng([seed, 0xBA7E5])
    wrong = []
    for cls in (1, 2):
        if keys["mode"] == "dtm":
            lam1, lam2 = text_rates(keys["terms"])
            idx = INFORMATIVE_TERMS[INFORMATIVE_TERMS < keys["terms"]]
            w = np.log(lam2[idx] / lam1[idx])
            offset = float(np.sum(lam2[idx] - lam1[idx]))
            rates = (lam1 if cls == 1 else lam2)[idx]
            llr = np.zeros(samples)
            for start in range(0, samples, 20000):
                x = rng.poisson(rates, size=(min(20000, samples - start), idx.size))
                llr[start:start + x.shape[0]] = x @ w - offset
        else:
            p = keys["p"]
            informative = int(round(p * (1.0 - keys.get("noise_fraction", 0.0))))
            delta = keys["delta"]
            shift = delta if cls == 2 else 0.0
            llr = np.zeros(samples)
            for j in range(informative):
                if keys["family"] == "t3":
                    r = rng.standard_t(3, samples) + shift
                    # log t3 density up to a constant: -2 log(1 + r^2/3)
                    llr += -2.0 * (np.log1p((r - delta) ** 2 / 3.0) - np.log1p(r * r / 3.0))
                else:
                    i = j % 5
                    r = _HETERO_DRAW[i](rng.standard_normal(samples)) + shift
                    llr += _hetero_logpdf(i, r - delta) - _hetero_logpdf(i, r)
        # the Bayes rule picks class 2 when llr > 0; ties split evenly
        miss = (llr < 0) if cls == 2 else (llr > 0)
        wrong.append(miss + 0.5 * (llr == 0))
    err = 0.5 * (wrong[0].mean() + wrong[1].mean())
    se = 0.5 * math.sqrt(wrong[0].var() / samples + wrong[1].var() / samples)
    return float(err), float(se)
