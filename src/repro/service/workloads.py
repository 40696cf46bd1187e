"""Sweep workloads the service can run, keyed by wire-protocol name.

A workload is a plain function ``fn(params, engine) -> payload``:

* ``params`` — the (already JSON-decoded) ``params`` object of the submit
  request;
* ``engine`` — a :class:`repro.runtime.SweepEngine` view whose ``progress``
  callback streams ticks back to every subscribed client; workloads route
  all heavy lifting through it so caching, executor choice and progress
  reporting come for free;
* return value — any JSON-serialisable object; it becomes the ``payload``
  of the terminal ``result`` event.

Workload functions run on a worker thread (the service wraps them in
``loop.run_in_executor``), so they may block; they must not touch the event
loop.  ``python -m repro run`` is a view over this registry: ``run X``
calls workload ``X`` with ``{"fast": ...}``, prints a text rendering of
the payload and writes the payload unchanged for ``--json``, so a service
client and a CLI run produce the same document.

The registry is open: tests and downstream deployments add workloads with
:func:`register_workload` (used as a decorator or called directly).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.runtime import SweepEngine

WorkloadFn = Callable[[Dict[str, Any], SweepEngine], Any]

_WORKLOADS: Dict[str, WorkloadFn] = {}


def register_workload(name: str, fn: Optional[WorkloadFn] = None):
    """Register ``fn`` under ``name``; usable as ``@register_workload("x")``."""

    def _register(workload: WorkloadFn) -> WorkloadFn:
        _WORKLOADS[name] = workload
        return workload

    if fn is not None:
        return _register(fn)
    return _register


def unregister_workload(name: str) -> None:
    """Remove a workload (primarily for test isolation)."""
    _WORKLOADS.pop(name, None)


def get_workload(name: str) -> WorkloadFn:
    """Look up a workload; raises ``KeyError`` with the known names."""
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(workload_names())}"
        ) from None


def workload_names() -> List[str]:
    """Sorted names of every registered workload."""
    return sorted(_WORKLOADS)


# ----------------------------------------------------------------------
# Built-in paper workloads (imports deferred so the service layer stays
# importable without pulling the whole modelling stack upfront)
# ----------------------------------------------------------------------
@register_workload("dse")
def run_dse(params: Dict[str, Any], engine: SweepEngine) -> Dict[str, Any]:
    """48-corner design-space exploration; ``{"fast": true}`` for the quick grid."""
    from repro.analysis.design_space import corner_summary_rows, run_design_space_exploration
    from repro.circuits.technology import tsmc65_like
    from repro.core.calibration import calibrated_suite
    from repro.core.characterization import CharacterizationPlan
    from repro.core.dse import DesignSpace

    fast = bool(params.get("fast", False))
    technology = tsmc65_like()
    plan = CharacterizationPlan.quick() if fast else None
    space = DesignSpace.quick() if fast else None
    suite = calibrated_suite(technology, plan=plan, engine=engine).suite
    result = run_design_space_exploration(technology, suite=suite, space=space, engine=engine)
    return {
        "command": "dse",
        "fast": fast,
        "corner_count": len(result.points),
        "corners": result.table(),
        "selected": corner_summary_rows(result),
    }


@register_workload("characterize")
def run_characterize(params: Dict[str, Any], engine: SweepEngine) -> Dict[str, Any]:
    """Reference characterisation sweeps; ``{"fast": true}`` for the quick plan."""
    from repro.circuits.technology import tsmc65_like
    from repro.core.characterization import CharacterizationPlan, characterize

    fast = bool(params.get("fast", False))
    technology = tsmc65_like()
    plan = CharacterizationPlan.quick() if fast else CharacterizationPlan()
    data = characterize(technology, plan, engine=engine)
    return {
        "command": "characterize",
        "fast": fast,
        "records": {
            "base": len(data.base),
            "supply": len(data.supply),
            "temperature": len(data.temperature),
            "mismatch": len(data.mismatch),
            "write_energy": len(data.write_energy),
            "discharge_energy": len(data.discharge_energy),
        },
        "total_records": data.record_count(),
    }


@register_workload("pvt")
def run_pvt(params: Dict[str, Any], engine: SweepEngine) -> Dict[str, Any]:
    """Fig. 5 PVT sweeps and Fig. 8 fom robustness; ``{"fast": true}`` for quick presets."""
    from repro.analysis.pvt_sweeps import (
        corner_sweep,
        mismatch_monte_carlo,
        supply_sweep,
        temperature_sweep,
    )
    from repro.circuits.technology import tsmc65_like
    from repro.core.calibration import calibrated_suite
    from repro.core.characterization import CharacterizationPlan
    from repro.core.dse import DesignSpace, explore_design_space
    from repro.core.pvt import analyze_corner_robustness

    fast = bool(params.get("fast", False))
    technology = tsmc65_like()
    supply = supply_sweep(technology, engine=engine)
    temperature = temperature_sweep(technology, engine=engine)
    corners = corner_sweep(technology, engine=engine)
    monte_carlo = mismatch_monte_carlo(technology, samples=200 if fast else 1000)
    plan = CharacterizationPlan.quick() if fast else None
    space = DesignSpace.quick() if fast else None
    suite = calibrated_suite(technology, plan=plan, engine=engine).suite
    exploration = explore_design_space(suite, space=space, engine=engine)
    fom = exploration.best_fom().config.renamed("fom")
    report = analyze_corner_robustness(suite, fom, engine=engine)
    return {
        "command": "pvt",
        "fast": fast,
        # Final V_BLB of each Fig. 5 trace; the supply and temperature
        # filters skip the time axis, stored under the key -1.0.
        "final_v_blb": {
            "supply": [
                [vdd, float(trace[-1])] for vdd, trace in sorted(supply.items()) if vdd > 0
            ],
            "temperature": [
                [temp_c, float(trace[-1])]
                for temp_c, trace in sorted(temperature.items())
                if temp_c >= 0
            ],
            "corner": {name: float(corners[name][-1]) for name in ("fast", "typical", "slow")},
        },
        "mismatch_sigma_mv": {
            str(float(t)): float(s) * 1e3
            for t, s in zip(
                monte_carlo["sampling_times"], monte_carlo["sigma_at_sampling_times"]
            )
        },
        "fom_corner": fom.to_dict(),
        "fom_robustness": report.describe(),
        "supply_sweep_error_lsb": [float(v) for v in report.supply_sweep.mean_error_lsb],
        "temperature_sweep_error_lsb": [
            float(v) for v in report.temperature_sweep.mean_error_lsb
        ],
    }


@register_workload("tables")
def run_tables(params: Dict[str, Any], engine: SweepEngine) -> Dict[str, Any]:
    """DNN accuracy tables (Table II protocol); ``{"fast": true}`` trains one quick model."""
    from repro.analysis.dnn_tables import (
        DnnExperimentConfig,
        corner_backends,
        model_builders,
        run_dnn_accuracy_experiment,
    )
    from repro.circuits.technology import tsmc65_like
    from repro.core.calibration import calibrated_suite
    from repro.core.characterization import CharacterizationPlan
    from repro.core.dse import DesignSpace, explore_design_space, select_corners
    from repro.dnn.datasets import imagenet_like

    fast = bool(params.get("fast", False))
    technology = tsmc65_like()
    plan = CharacterizationPlan.quick() if fast else None
    space = DesignSpace.quick() if fast else None
    suite = calibrated_suite(technology, plan=plan, engine=engine).suite
    corners = select_corners(explore_design_space(suite, space=space, engine=engine))
    backends = corner_backends(technology, suite=suite, corners=corners)

    config = DnnExperimentConfig.quick() if fast else DnnExperimentConfig()
    dataset = imagenet_like(
        image_size=config.image_size,
        train_per_class=config.train_per_class,
        test_per_class=config.test_per_class,
    )
    models = model_builders(config.image_size, dataset.classes)
    if fast:
        models = models[:1]
    results = run_dnn_accuracy_experiment(dataset, backends, config=config, models=models)
    return {
        "command": "tables",
        "fast": fast,
        "accuracy": {
            model: {
                mode: {"top1": report.top1, "top5": report.top5}
                for mode, report in reports.items()
            }
            for model, reports in results.items()
        },
    }


def _eventsim_shard(pairs: tuple, fast: bool) -> Dict[str, Any]:
    """Module-level shard body (picklable for the process-pool executor).

    Runs one contiguous slice of ``(x, d)`` operand pairs through the
    event-driven :class:`~repro.eventsim.testbench.MultiplierTestbench`
    and returns per-pair arrays for an artifact-friendly merge.
    """
    import numpy as np

    from repro.circuits.technology import tsmc65_like
    from repro.core.calibration import calibrated_suite
    from repro.core.characterization import CharacterizationPlan
    from repro.eventsim.testbench import MultiplierTestbench
    from repro.multiplier.config import MultiplierConfig

    plan = CharacterizationPlan.quick() if fast else None
    suite = calibrated_suite(tsmc65_like(), plan=plan).suite
    testbench = MultiplierTestbench(suite, MultiplierConfig(name="service-eventsim"))
    results = testbench.run_sweep([tuple(pair) for pair in pairs])
    return {
        "x": np.array([result.x for result in results], dtype=int),
        "d": np.array([result.d for result in results], dtype=int),
        "product": np.array([result.product for result in results], dtype=int),
        "expected": np.array([result.expected for result in results], dtype=int),
        "model": np.array(
            [testbench.model_result(result.x, result.d) for result in results],
            dtype=int,
        ),
        "executed_events": np.array(
            [result.executed_events for result in results], dtype=int
        ),
        "finish_time": np.array(
            [result.finish_time for result in results], dtype=float
        ),
    }


@register_workload("eventsim")
def run_eventsim(params: Dict[str, Any], engine: SweepEngine) -> Dict[str, Any]:
    """Event-driven multiplier testbench sweep (paper Fig. 3 sequence).

    Parameters: ``pairs`` (list of ``[x, d]`` operand pairs; default a
    4x4 corner grid of the operand range), ``fast`` (quick calibration
    plan), ``shards`` (split the pair list into that many contiguous
    engine jobs — under a ``distributed`` executor they spread across
    cluster workers, and every shard is content-addressed so warm repeats
    resolve from the artifact cache).

    The payload reports each pair's event-driven ``product`` next to the
    direct model's result; ``matches_model`` is the end-to-end check that
    the event framework and the vectorised multiplier model agree.
    """
    import numpy as np

    from repro.circuits.technology import tsmc65_like
    from repro.runtime import Artifact, Job, SweepSpec, job_key

    fast = bool(params.get("fast", False))
    shards = int(params.get("shards", 1))
    raw_pairs = params.get("pairs")
    if raw_pairs is None:
        corners = (0, 5, 10, 15)
        raw_pairs = [[x, d] for x in corners for d in corners]
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise ValueError("pairs must be a non-empty list of [x, d] pairs")
    pairs = []
    for pair in raw_pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"malformed operand pair {pair!r} (expected [x, d])")
        x, d = int(pair[0]), int(pair[1])
        if not 0 <= x <= 15 or not 0 <= d <= 15:
            raise ValueError(f"operand pair {pair!r} out of range 0..15")
        pairs.append((x, d))
    if shards < 1:
        raise ValueError("shards must be at least 1")
    shards = min(shards, len(pairs))
    bounds = np.linspace(0, len(pairs), shards + 1, dtype=int)
    jobs = []
    for index in range(shards):
        shard = tuple(pairs[int(bounds[index]):int(bounds[index + 1])])
        jobs.append(
            Job(
                fn=_eventsim_shard,
                args=(shard, fast),
                name=f"eventsim[{len(shard)}]",
                key=job_key("service-eventsim", tsmc65_like(), shard, fast),
                encode=lambda result: Artifact(arrays=dict(result)),
                decode=lambda artifact: dict(artifact.arrays),
            )
        )
    outputs = engine.run(SweepSpec(f"eventsim[{len(pairs)}x{shards}]", jobs))
    merged = {
        name: np.concatenate([output[name] for output in outputs])
        for name in outputs[0]
    }
    return {
        "command": "eventsim",
        "fast": fast,
        "pairs": len(pairs),
        "shards": shards,
        "matches_model": bool(np.array_equal(merged["product"], merged["model"])),
        "max_abs_error": int(np.max(np.abs(merged["product"] - merged["expected"]))),
        "total_events": int(merged["executed_events"].sum()),
        "results": [
            {
                "x": int(x),
                "d": int(d),
                "product": int(product),
                "expected": int(expected),
            }
            for x, d, product, expected in zip(
                merged["x"], merged["d"], merged["product"], merged["expected"]
            )
        ],
    }


#: Execution modes of the paper's Table II / III protocol the ``dnn``
#: workload can evaluate (FLOAT32, exact INT4, and the DSE corner LUTs).
DNN_MODES = ("float32", "int4", "fom", "power", "variation")


def _dnn_shard(
    model: str, modes: tuple, quick: bool, bounds: tuple
) -> Dict[str, Any]:
    """Module-level shard body (picklable for the process-pool executor).

    Trains / quantises the model deterministically (fixed seeds) and
    evaluates one contiguous ``[lo, hi)`` slice of the effective test set,
    returning integer top-1 / top-5 hit counts so the merged accuracy is
    bit-identical to evaluating the whole test set in one call.
    """
    import numpy as np

    from repro.analysis.dnn_tables import (
        DnnExperimentConfig,
        corner_backends,
        model_builders,
    )
    from repro.dnn.datasets import imagenet_like
    from repro.dnn.quantization import QuantizationScheme, quantize_network
    from repro.dnn.training import TrainingConfig, train_network

    config = DnnExperimentConfig.quick() if quick else DnnExperimentConfig()
    dataset = imagenet_like(
        image_size=config.image_size,
        train_per_class=config.train_per_class,
        test_per_class=config.test_per_class,
    )
    builders = dict(model_builders(config.image_size, dataset.classes))
    network = builders[model]()
    train_network(
        network,
        dataset,
        TrainingConfig(
            epochs=config.epochs,
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
            seed=config.seed,
        ),
    )
    calibration = dataset.train_images[: config.calibration_samples]
    quantized = quantize_network(network, calibration, QuantizationScheme())
    corner_modes = [mode for mode in modes if mode not in ("float32", "int4")]
    backends = corner_backends(seed=config.seed) if corner_modes else {}

    images = dataset.test_images
    labels = np.asarray(dataset.test_labels)
    if config.max_eval_samples is not None and images.shape[0] > config.max_eval_samples:
        images = images[: config.max_eval_samples]
        labels = labels[: config.max_eval_samples]
    lo, hi = int(bounds[0]), int(bounds[1])
    images, labels = images[lo:hi], labels[lo:hi]

    def hits(scores: np.ndarray, k: int) -> int:
        # Mirrors repro.core.metrics.top_k_accuracy row by row; returning
        # the integer hit count (not the mean) keeps the sharded merge an
        # exact sum, so ``sum(hits) / samples`` is bit-identical to the
        # unsharded ``np.mean``.
        top_k = np.argpartition(-scores, kth=k - 1, axis=1)[:, :k]
        return int(np.any(top_k == labels[:, np.newaxis], axis=1).sum())

    counts: Dict[str, int] = {"samples": hi - lo}
    for mode in modes:
        if mode == "float32":
            net = network
        elif mode == "int4":
            net = quantized
        else:
            net = quantized.with_backend(backends[mode], name_suffix=f"-{mode}")
        scores = np.asarray(
            net.predict(images, batch_size=config.batch_size), dtype=float
        )
        counts[f"{mode}_top1"] = hits(scores, 1)
        counts[f"{mode}_top5"] = hits(scores, min(5, scores.shape[1]))
    return counts


@register_workload("dnn")
def run_dnn(params: Dict[str, Any], engine: SweepEngine) -> Dict[str, Any]:
    """DNN accuracy pipeline (paper Table II protocol) as a sharded sweep.

    Parameters: ``model`` (one of the four Table II backbones, default
    ``"VGG16"``), ``modes`` (subset of :data:`DNN_MODES`, default
    ``["float32", "int4"]`` — corner modes pull in the DSE), ``quick``
    (default true: the test-scale :meth:`DnnExperimentConfig.quick`
    preset) and ``shards`` (split the test-set evaluation into that many
    contiguous engine jobs).

    Every shard trains the same deterministic network (fixed seeds) and
    evaluates its slice of the test split, returning integer hit counts;
    the merged top-1 / top-5 accuracies are bit-identical to calling the
    evaluation directly on the full test set, for any shard count.
    """
    import numpy as np

    from repro.analysis.dnn_tables import DnnExperimentConfig
    from repro.runtime import Artifact, Job, SweepSpec, job_key

    model = str(params.get("model", "VGG16"))
    if model not in ("VGG16", "VGG19", "ResNet50", "ResNet101"):
        raise ValueError(f"unknown model {model!r}")
    modes = tuple(params.get("modes", ["float32", "int4"]))
    if not modes:
        raise ValueError("modes must be a non-empty list")
    for mode in modes:
        if mode not in DNN_MODES:
            raise ValueError(f"unknown mode {mode!r}; available: {', '.join(DNN_MODES)}")
    quick = bool(params.get("quick", True))
    shards = int(params.get("shards", 1))
    if shards < 1:
        raise ValueError("shards must be at least 1")

    config = DnnExperimentConfig.quick() if quick else DnnExperimentConfig()
    total = 20 * config.test_per_class  # imagenet_like has 20 classes
    if config.max_eval_samples is not None:
        total = min(total, config.max_eval_samples)
    shards = min(shards, total)
    bounds = np.linspace(0, total, shards + 1, dtype=int)
    jobs = []
    for index in range(shards):
        window = (int(bounds[index]), int(bounds[index + 1]))
        jobs.append(
            Job(
                fn=_dnn_shard,
                args=(model, modes, quick, window),
                name=f"dnn[{model}:{window[0]}:{window[1]}]",
                key=job_key("service-dnn", model, modes, quick, window),
                encode=lambda result: Artifact(
                    arrays={name: np.array(value) for name, value in result.items()}
                ),
                decode=lambda artifact: {
                    name: int(value) for name, value in artifact.arrays.items()
                },
            )
        )
    outputs = engine.run(SweepSpec(f"dnn[{model}x{shards}]", jobs))
    samples = sum(output["samples"] for output in outputs)
    reports = {}
    for mode in modes:
        top1 = sum(output[f"{mode}_top1"] for output in outputs) / samples
        top5 = sum(output[f"{mode}_top5"] for output in outputs) / samples
        reports[mode] = {
            "model": model,
            "mode": mode,
            "top1": top1,
            "top5": top5,
            "top1_percent": 100.0 * top1,
            "top5_percent": 100.0 * top5,
            "samples": samples,
        }
    return {
        "command": "dnn",
        "model": model,
        "quick": quick,
        "shards": shards,
        "samples": samples,
        "reports": reports,
    }


@register_workload("montecarlo")
def run_montecarlo(params: Dict[str, Any], engine: SweepEngine) -> Dict[str, Any]:
    """Fig. 5d Monte-Carlo mismatch spread; ``samples`` / ``seed`` / ``shards``.

    With ``shards`` (default 1) the per-sample workload splits into that
    many contiguous :func:`numpy.random.SeedSequence`-stable sample ranges
    submitted through the engine — under a ``distributed`` executor the
    shards spread across cluster workers, their progress ticks merge into
    the request's single progress stream, and the merged panel is
    bit-identical to the unsharded one.  Each shard is content-addressed,
    so repeat requests resolve engine-side from the artifact cache and warm
    shards never reach a worker.  One shard is the whole panel as a single
    vectorised solver job.
    """
    from repro.analysis.pvt_sweeps import mismatch_monte_carlo_sharded
    from repro.circuits.technology import tsmc65_like

    samples = int(params.get("samples", 200))
    seed = int(params.get("seed", 2024))
    shards = int(params.get("shards", 1))
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if shards < 1:
        raise ValueError("shards must be at least 1")
    result = mismatch_monte_carlo_sharded(
        tsmc65_like(), samples=samples, seed=seed, shards=shards, engine=engine
    )
    sigmas = {
        f"{float(t) * 1e9:.1f}ns": float(s)
        for t, s in zip(result["sampling_times"], result["sigma_at_sampling_times"])
    }
    return {
        "command": "montecarlo",
        "samples": samples,
        "seed": seed,
        "shards": shards,
        "sigma_v_blb": sigmas,
    }
