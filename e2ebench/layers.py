"""Which public functions of the program a traced run wraps, and the
per-layer metrics computed from their spans.

Span names are layer-qualified.  ``eval.fold.*`` spans carry the fold's
sampler method or classifier name as their last component, so each total
splits per method and per classifier.
"""

from __future__ import annotations

from repro.core import engine, rdgbg
from repro.evaluation import cross_validation
from repro.experiments import executor as executor_module

__all__ = ["CLASSIFIERS", "METHODS", "install", "eval_metrics", "core_metrics"]

METHODS = ("gbabs", "ggbs", "srs")
CLASSIFIERS = ("dt", "xgboost", "lightgbm", "knn", "rf")


def _instrument(tracer, factory, methods):
    """A factory whose products time ``methods`` ((attr, span name) pairs)."""

    def make(seed):
        product = factory(seed)
        for attr, name in methods:
            original = getattr(product, attr)
            setattr(product, attr,
                    lambda *a, _f=original, _n=name, **k: tracer.call(_n, _f, a, k))
        return product

    return make


def install(tracer) -> None:
    """Wrap the layer boundaries; undo with ``tracer.restore()``."""
    tracer.wrap(rdgbg.RDGBG, "generate", "core.rdgbg.generate")
    tracer.wrap(engine.CandidateScan, "__init__", "core.engine.scan")
    tracer.wrap(engine.CandidateScan, "prefix", "core.engine.prefix",
                rows=lambda result: len(result[0]))
    tracer.wrap(engine.BallCenterIndex, "conflict_radius", "core.engine.conflict")
    tracer.wrap(executor_module.ExperimentExecutor, "run", "experiments.executor.run")
    tracer.wrap(cross_validation, "compute_metric", "eval.fold.metrics.{clf}")

    run_fold = cross_validation.run_fold

    def traced_run_fold(x, y, train, test, classifier_factory,
                        sampler_factory, fold_seed, metrics):
        method = getattr(sampler_factory, "method", "ori")
        clf = classifier_factory.name
        tracer.tags.update(method=method, clf=clf)
        if sampler_factory is not None:
            sampler_factory = _instrument(
                tracer, sampler_factory,
                [("fit_resample", f"eval.fold.sample.{method}")])
        classifier_factory = _instrument(
            tracer, classifier_factory,
            [("fit", f"eval.fold.fit.{clf}"), ("predict", f"eval.fold.predict.{clf}")])
        return tracer.span("eval.fold", run_fold, x, y, train, test,
                           classifier_factory, sampler_factory, fold_seed, metrics)

    # The pool task looks run_fold up in cross_validation; the serial path
    # uses the executor module's own import of it.
    tracer.replace(cross_validation, "run_fold", traced_run_fold)
    tracer.replace(executor_module, "run_fold", traced_run_fold)


def _sum(totals, prefix, field="s"):
    return sum(v.get(field, 0) for k, v in totals.items()
               if k == prefix or k.startswith(prefix + "."))


def core_metrics(totals) -> dict:
    return {
        "core.rdgbg.generate_s": _sum(totals, "core.rdgbg.generate"),
        "core.engine.scan_calls": _sum(totals, "core.engine.scan", "calls"),
        "core.engine.scan_s": _sum(totals, "core.engine.scan"),
        "core.engine.prefix_calls": _sum(totals, "core.engine.prefix", "calls"),
        "core.engine.prefix_s": _sum(totals, "core.engine.prefix"),
        "core.engine.prefix_rows": _sum(totals, "core.engine.prefix", "rows"),
        "core.engine.conflict_calls": _sum(totals, "core.engine.conflict", "calls"),
        "core.engine.conflict_s": _sum(totals, "core.engine.conflict"),
    }


def eval_metrics(totals) -> dict:
    out = {
        "eval.fold.sample_s": _sum(totals, "eval.fold.sample"),
        "eval.fold.fit_s": _sum(totals, "eval.fold.fit"),
        "eval.fold.predict_s": _sum(totals, "eval.fold.predict"),
        "eval.fold.metrics_s": _sum(totals, "eval.fold.metrics"),
    }
    for method in METHODS:
        out[f"eval.fold.sample_s.{method}"] = _sum(totals, f"eval.fold.sample.{method}")
    for clf in CLASSIFIERS:
        out[f"eval.fold.fit_s.{clf}"] = _sum(totals, f"eval.fold.fit.{clf}")
        out[f"eval.fold.predict_s.{clf}"] = _sum(totals, f"eval.fold.predict.{clf}")
    return out
