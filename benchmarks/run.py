"""Benchmark of crystalpretrain: ingest, pretraining, fine-tuning, inference
and one whole user pass, on seeded synthetic inputs.

    python3 benchmarks/run.py --workload desk-sup-bt --seed 1 --seconds 20 --trace 0

Run from a checkout: the program is imported from ``src/`` next to this
directory. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps
the program's public functions, writes the spans to ``.bench_out/`` and
prints the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: on a small shared machine
# a second thread roughly doubles the run-to-run spread of a step.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402


def keep_freed_memory() -> bool:
    """Have glibc serve every allocation from the heap and keep freed memory
    in the process, instead of mapping each large array afresh and handing
    it back on free. On a VM that returns freed guest pages to its host,
    re-faulting them costs whatever the host's load makes it: it was a
    third of a 320-atom neighbour search, and it slowed the ops that ran
    just after one. Returns False where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_max = -1, -4
    return bool(mallopt(m_mmap_max, 0)) and bool(mallopt(m_trim_threshold, 2**31 - 1))


KEEPS_FREED_MEMORY = keep_freed_memory()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "crystalpretrain" / "__init__.py").is_file():
    sys.exit(f"benchmark: no crystalpretrain sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import crystalpretrain  # noqa: E402
from crystalpretrain import (augment, autodiff, checkpoint, cli, datasets,  # noqa: E402
                             graphs, losses, model, structures, train)
from crystalpretrain.rng import RngStream  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import median  # noqa: E402

MIN_ROUNDS = 3
SETUP_PROBES = 7
CHECK_SAMPLE = 8          # structures per brute-force neighbour check
LOSS_CHECK_CRYSTALS = 32  # the scalar-loop loss is O(B^2 D) Python

END_TO_END_UNITS = {
    "setup_s": "s", "ingest_structures_per_s": "1/s",
    "pretrain_graphs_per_s": "1/s", "finetune_graphs_per_s": "1/s",
    "infer_graphs_per_s": "1/s", "pipeline_s": "s", "peak_rss_mb": "MB",
}


def env_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "train.n_workers": 1,
        "malloc": "heap only, no trim" if KEEPS_FREED_MEMORY else "default",
    }


class Checker:
    """Counts operations; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            ok, detail = fn(*args)
        except Exception:  # a crashing check is reported as a failed operation
            ok, detail = False, traceback.format_exc()
        if not ok:
            self.failed += 1
            print(f"check failed: {name}: {detail}", file=sys.stderr)


def in_span(tr, name, fn, k):
    """fn(k), as one traced step named `name` unless untraced or warm-up."""
    if tr is None or k == 0:
        return fn(k)
    with tr.span(name, new_step=True):
        return fn(k)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def setup_times(corpus, cfg) -> list[float]:
    model_json = json.dumps(vars(cfg.model))
    width = str(cfg.graph.n_centers)
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"),
             str(corpus.manifest_path), model_json, width],
            capture_output=True, text=True, check=True, timeout=120)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def ingest(paths, gcfg) -> list:
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            structure = structures.parse_cif(fh.read())
        out.append(graphs.build_graph(structure, gcfg))
    return out


class Phases:
    """The four timed operations on one corpus. The model steps walk the
    corpus batch by batch in order, mirroring the inner loops of
    train.pretrain and train.finetune."""

    OPS = ("ingest", "pretrain", "finetune", "infer")

    def __init__(self, wl, seed, paths, records):
        self.wl, self.seed, self.paths, self.tracer = wl, seed, paths, None
        self.pre_cfg = wl.train_config("pretrain", seed)
        self.ft_cfg = wl.train_config("finetune", seed)
        self.graphs = ingest(paths, self.pre_cfg.graph)
        self.n_batches = -(-len(self.graphs) // self.ft_cfg.batch_size)
        self.records = list(records)
        targets = np.array([r.target for r in records])
        self.targets = (targets - targets.mean()) / targets.std()
        self.pretrained = self._params(model.pretrain_param_names)
        self.finetuned = self._params(model.finetune_param_names)
        self.tape_records: list[int] = []
        self.count = {op: 0 for op in self.OPS}

    def _params(self, names_fn):
        params = model.init_params(self.pre_cfg.model, self.seed,
                                   edge_feature_width=self.pre_cfg.graph.n_centers)
        names = names_fn(params)
        return params, names, train.AdamState.for_params(params, names)

    def _batch(self, k: int, size: int):
        n_full = len(self.graphs) // size
        start = (k % n_full) * size
        return k // n_full, np.arange(start, start + size)

    def _adam(self, opt, grads, cfg):
        params, names, state = opt
        train.adam_step(
            params, {n: grads.get(params[n], np.zeros_like(params[n].values))
                     for n in names},
            state, lr=cfg.lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
            eps=cfg.adam_eps, weight_decay=cfg.weight_decay,
            decoupled=cfg.decoupled_weight_decay)

    def views(self, epoch, idx):
        cfg = self.pre_cfg
        pairs = [augment.make_views(self.graphs[i], cfg.augment,
                                    (RngStream(cfg.seed, "augment", epoch, int(i), 0),
                                     RngStream(cfg.seed, "augment", epoch, int(i), 1)),
                                    cfg.graph) for i in idx]
        return [v for pair in pairs for v in pair]

    def labels(self, idx):
        if not self.pre_cfg.loss.needs_labels:
            return None
        return np.array([self.records[i].surrogate_label for i in idx])

    def ingest(self, c):
        """Read, parse and build the graph of structure c."""
        ingest([self.paths[c % len(self.paths)]], self.pre_cfg.graph)

    def pretrain(self, k):
        cfg, params = self.pre_cfg, self.pretrained[0]
        epoch, idx = self._batch(k, cfg.batch_size)
        views = self.views(epoch, idx)
        labels = self.labels(idx)
        with autodiff.Tape() as tape:
            batch = model.build_batch(views)
            z = model.project(params, model.encode(params, batch, cfg.model))
            loss = losses.compute_loss(cfg.loss, z, labels)
            grads = autodiff.backward(tape, loss)
        self._adam(self.pretrained, grads, cfg)
        self.tape_records.append(len(tape.records))

    def finetune(self, k):
        cfg, params = self.ft_cfg, self.finetuned[0]
        _, idx = self._batch(k, cfg.batch_size)
        t = autodiff.Tensor(self.targets[idx][:, None])
        with autodiff.Tape() as tape:
            batch = model.build_batch([self.graphs[i] for i in idx])
            out = model.head_forward(params, model.encode(params, batch, cfg.model))
            loss = autodiff.mean(autodiff.power(autodiff.sub(out, t), 2))
            grads = autodiff.backward(tape, loss)
        self._adam(self.finetuned, grads, cfg)

    def predict(self, graph_list):
        """Forward only, no tape, in fine-tuning batches."""
        params, size = self.finetuned[0], self.ft_cfg.batch_size
        return np.concatenate([
            model.head_forward(params, model.encode(
                params, model.build_batch(graph_list[s:s + size]),
                self.ft_cfg.model)).values[:, 0]
            for s in range(0, len(graph_list), size)])

    def infer(self, c):
        """Forward-only prediction of inference batch c."""
        size = self.ft_cfg.batch_size
        start = (c % self.n_batches) * size
        self.predict(self.graphs[start:start + size])

    def units(self, op) -> int:
        """How many distinct items op cycles through."""
        if op == "ingest":
            return len(self.paths)
        if op == "infer":
            return self.n_batches
        return 1

    def plan(self) -> dict[str, int]:
        """Warm each op up with one call and return how many calls of it
        make up a round: the workload's whole passes over the corpus for
        ingest and inference, its steps for the training ops. The counts
        do not depend on the machine's speed, so every run, fast or slow,
        times the same mix."""
        for op in self.OPS:
            getattr(self, op)(0)
        return {op: self.wl.per_round[op] * self.units(op) for op in self.OPS}

    def rounds(self, seconds: float, calls: dict[str, int]):
        """Time whole rounds of the four ops until `seconds` have passed and
        at least MIN_ROUNDS rounds ran; returns {op: [(item, seconds)]}.
        Interleaving spreads every op's samples over the whole run, so a
        slow spell on a shared machine moves all medians a little rather
        than one a lot."""
        samples = {op: [] for op in self.OPS}
        start = time.perf_counter()
        n_rounds = 0
        while n_rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            for op in self.OPS:
                gc.collect()
                for _ in range(calls[op]):
                    self.count[op] += 1
                    c = self.count[op]
                    t0 = time.perf_counter()
                    in_span(self.tracer, f"bench.{op}", getattr(self, op), c)
                    samples[op].append((c % self.units(op), time.perf_counter() - t0))
            n_rounds += 1
        return samples


def seconds_per_unit(samples) -> float:
    """Sum over items of each item's median time: one pass over the corpus
    for ingest and inference, one step for the training ops."""
    by_item: dict[int, list[float]] = {}
    for item, dt in samples:
        by_item.setdefault(item, []).append(dt)
    return sum(median(v) for v in by_item.values())


def pipeline(wl, seed, corpus, work: Path, checker: Checker | None) -> tuple[float, int]:
    """One user pass: ingest -> pretrain one epoch -> checkpoint save/load ->
    fine-tune one epoch from the pretrained encoder -> `crystalpretrain
    evaluate` in-process. Returns its wall time and the size of the
    pretrained checkpoint; checks its outputs when given a checker."""
    pre_cfg = wl.train_config("pretrain", seed)
    ft_cfg = wl.train_config("finetune", seed)
    ckpt_path = work / "pretrain.ckpt"
    argv = ["--out", str(work / "evaluate"), "--seed", str(seed),
            "--set", f"train.batch_size={ft_cfg.batch_size}"]
    for pair in wl.cli_overrides():
        argv += ["--set", pair]
    argv += ["evaluate", str(corpus.manifest_path),
             "--checkpoint", str(work / "finetune" / "best.ckpt")]

    work.mkdir(parents=True)
    start = time.perf_counter()
    manifest = datasets.load_manifest(corpus.manifest_path)
    dataset = train.load_graph_dataset(manifest, pre_cfg.graph)
    pre = train.pretrain(dataset, pre_cfg)
    checkpoint.save_checkpoint(ckpt_path, pre.checkpoint)
    loaded = checkpoint.load_checkpoint(ckpt_path)
    ft = train.finetune(dataset, loaded, ft_cfg, out_dir=work / "finetune")
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    if checker is None:
        return wall, ckpt_path.stat().st_size

    checker.check("evaluate exit code", lambda: (code == 0, f"exit code {code}"))
    checker.check("pretrain checkpoint round trip", checks.check_checkpoint,
                  loaded.tensors, {n: t.values for n, t in pre.params.items()})
    best = checkpoint.load_checkpoint(work / "finetune" / "best.ckpt")
    checker.check("fine-tune checkpoint round trip", checks.check_checkpoint,
                  best.tensors, {n: t.values for n, t in ft.params.items()})
    eval_mae = float("nan")
    if code == 0:
        rows = dict(line.split(",", 1) for line in
                    (work / "evaluate" / "metrics.csv").read_text().splitlines()[1:])
        eval_mae = float(rows["test_mae"])
    # float32 weights move each prediction by ~1e-7 of the targets' size
    target_scale = float(np.mean([abs(r.target) for r in dataset.records]))
    checker.check("evaluate reproduces the fine-tuned test MAE",
                  checks.check_relative, eval_mae, ft.metrics.mae,
                  checks.FLOAT32_RTOL, target_scale, "test MAE")
    return wall, ckpt_path.stat().st_size


def finetune_quality(ph: "Phases", checker: Checker) -> None:
    """Fine-tune long enough to learn, untimed, and compare the test MAE
    with predicting the train-split mean."""
    epochs, batch = ph.wl.quality_finetune
    cfg = ph.wl.train_config("finetune", ph.seed, epochs, batch)
    dataset = train.GraphDataset(records=ph.records, graphs=ph.graphs)
    mae = train.finetune(dataset, None, cfg).metrics.mae
    splits = train.split_dataset(ph.records, "finetune", ph.seed,
                                 val_fraction=cfg.val_fraction,
                                 test_fraction=cfg.test_fraction)
    target = np.array([r.target for r in ph.records])
    checker.check("fine-tuned MAE beats the train-mean predictor",
                  checks.check_beats_mean, mae, target[splits["test"]],
                  target[splits["train"]])


def model_checks(ph: Phases, corpus, checker: Checker) -> None:
    gcfg = ph.pre_cfg.graph
    graph_list = ph.graphs
    n = len(graph_list)

    if corpus.primitives is None:
        for i in range(0, n, max(1, n // CHECK_SAMPLE)):
            s = corpus.structures[i]
            checker.check(f"neighbours of {s.id} match brute force",
                          checks.check_neighbors, s, graph_list[i], gcfg.radius,
                          gcfg.max_neighbors, range(s.n_sites))
    else:
        prim_graphs = [graphs.build_graph(p, gcfg) for p in corpus.primitives]
        params = ph.finetuned[0]
        for s, g, p, pg in zip(corpus.structures, graph_list, corpus.primitives,
                               prim_graphs):
            checker.check(f"neighbours of {p.id} (primitive) match brute force",
                          checks.check_neighbors, p, pg, gcfg.radius,
                          gcfg.max_neighbors, range(p.n_sites))
            anchors = sorted({0, s.n_sites // 2, s.n_sites - 1})
            checker.check(f"neighbours of {s.id} (supercell) match brute force",
                          checks.check_neighbors, s, g, gcfg.radius,
                          gcfg.max_neighbors, anchors)
            checker.check(f"{s.id}: supercell distances equal the primitive's",
                          checks.check_supercell_distances, g, pg)
            pooled = [model.encode(params, model.build_batch([x]), ph.ft_cfg.model)
                      .values for x in (g, pg)]
            checker.check(f"{s.id}: supercell encoding equals the primitive's",
                          checks.check_close, pooled[0], pooled[1],
                          checks.ENCODING_TOL, "pooled encoding")

    cfg, params = ph.pre_cfg, ph.pretrained[0]
    idx = np.arange(min(LOSS_CHECK_CRYSTALS, cfg.batch_size))
    batch = model.build_batch(ph.views(0, idx))
    z = model.project(params, model.encode(params, batch, cfg.model))
    labels = ph.labels(idx)
    loss = losses.compute_loss(cfg.loss, z, labels).item()
    checker.check(f"{cfg.loss.kind} loss matches the scalar loop",
                  checks.check_loss, cfg.loss, z.values, labels, loss)

    sample = graph_list[:min(n, 2 * ph.ft_cfg.batch_size, 16)]
    batched = ph.predict(sample)
    single = np.concatenate([ph.predict([g]) for g in sample])
    checker.check("batched inference equals one graph at a time",
                  checks.check_close, batched, single, checks.BATCHING_TOL,
                  "prediction")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def per_layer(tr: tracing.Tracer, ph: Phases, untraced: dict, traced: dict,
              ckpt_bytes: int) -> dict:
    step, infer = "bench.pretrain", "bench.infer"
    ms = {
        "structures.parse_cif_ms": median(tr.per_call_ms("structures.parse_cif")),
        "datasets.load_manifest_ms": median(tr.per_call_ms("datasets.load_manifest")),
        "graphs.neighbor_list_ms": median(tr.per_call_ms("graphs.neighbor_list")),
        "graphs.gaussian_expand_ms": median(tr.per_call_ms("graphs.gaussian_expand")),
        "augment.make_views_ms": median(tr.per_step_ms(step, "augment.make_views")),
        "model.build_batch_ms": median(tr.per_step_ms(step, "model.build_batch")),
        "model.encode_ms": median(tr.per_step_ms(step, "model.encode")),
        "model.encode_infer_ms": median(tr.per_step_ms(infer, "model.encode")),
        "model.heads_ms": median(tr.per_step_ms("bench.finetune", "model.heads")),
        "losses.compute_loss_ms": median(tr.per_step_ms(step, "losses.compute_loss")),
        "autodiff.backward_ms": median(tr.per_step_ms(step, "autodiff.backward")),
    }
    for op in tracing.OPS:
        ms[f"autodiff.op.{op}_ms"] = median(tr.per_step_ms(step, f"autodiff.op.{op}"))
        ms[f"autodiff.op.{op}_infer_ms"] = median(
            tr.per_step_ms(infer, f"autodiff.op.{op}"))
    ms["train.step_ms"] = median(tr.per_call_ms(step))
    ms["train.adam_step_ms"] = median(tr.per_step_ms(step, "train.adam_step"))
    ms["checkpoint.save_ms"] = median(tr.per_call_ms("checkpoint.save"))
    ms["checkpoint.load_ms"] = median(tr.per_call_ms("checkpoint.load"))
    out = {name: (value, "ms") for name, value in ms.items()}
    out["cli.evaluate_s"] = (median(tr.per_call_ms("cli.evaluate")) / 1e3, "s")
    out["graphs.edges_per_graph"] = (
        float(np.mean([g.n_edges for g in ph.graphs])), "count")
    out["autodiff.tape_records_per_step"] = (float(median(ph.tape_records)), "count")
    out["checkpoint.bytes"] = (float(ckpt_bytes), "bytes")

    self_time = tr.self_time_by_layer()
    total = sum(self_time.values())
    for layer in tracing.LAYERS:
        out[f"{layer}.self_pct"] = (100.0 * self_time.get(layer, 0.0) / total, "%")
    # one round's worth of each op, traced against untraced, same process
    base = sum(seconds_per_unit(v) for v in untraced.values())
    with_spans = sum(seconds_per_unit(v) for v in traced.values())
    out["trace.overhead_pct"] = (100.0 * (with_spans - base) / base, "%")
    return out


def run(args) -> dict:
    wl = inputs.WORKLOADS[args.workload]
    if args.small:
        wl = inputs.small(wl)
    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    checker = Checker()
    tr = tracing.Tracer() if args.trace else None
    try:
        corpus = inputs.make_corpus(wl, args.seed, work / "data")
        manifest = datasets.load_manifest(corpus.manifest_path)
        paths = [r.cif_path for r in manifest.records]

        setups = setup_times(corpus, wl.train_config("pretrain", args.seed))
        checker.ops(len(setups))

        gc.collect()
        ph = Phases(wl, args.seed, paths, manifest.records)
        calls = ph.plan()
        # peak memory of ingesting the corpus and one call of every timed
        # op, on batches of the same make-up whatever the seed. The user
        # passes batch crystals as the seeded splits fall, which moved the
        # peak of large-cells between 917 and 1032 MB from seed to seed.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        def user_pass(i):
            gc.collect()
            wall, size = in_span(ph.tracer, "bench.pipeline", lambda _: pipeline(
                wl, args.seed, corpus, work / f"pipeline{i}",
                checker if i == 0 else None), 1)
            checker.ops(1)
            return wall, size

        # user passes before, between and after two halves of the timed
        # rounds; in the traced run the first half and the first pass run
        # without wrappers, the first half giving the tracing overhead
        walls = [user_pass(0)[0]]
        halves = [ph.rounds(args.seconds / 2, calls)]
        if tr is not None:
            tracing.install(tr)
            ph.tracer = tr
        wall, ckpt_bytes = user_pass(1)
        walls.append(wall)
        halves.append(ph.rounds(args.seconds / 2, calls))
        walls.append(user_pass(2)[0])
        times = {op: halves[0][op] + halves[1][op] for op in ph.OPS}
        checker.ops(sum(len(v) for v in times.values()))

        gc.collect()
        if wl.quality_finetune is not None:
            finetune_quality(ph, checker)
        model_checks(ph, corpus, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tr is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tr.write(out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl")
        metrics = per_layer(tr, ph, halves[0], halves[1], ckpt_bytes)
    else:
        metrics = {
            "setup_s": median(setups),
            "ingest_structures_per_s": len(paths) / seconds_per_unit(times["ingest"]),
            "pretrain_graphs_per_s":
                ph.pre_cfg.batch_size / seconds_per_unit(times["pretrain"]),
            "finetune_graphs_per_s":
                ph.ft_cfg.batch_size / seconds_per_unit(times["finetune"]),
            "infer_graphs_per_s": len(paths) / seconds_per_unit(times["infer"]),
            "pipeline_s": median(walls),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": float(v), "unit": u}
                    for name, (v, u) in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time spent in rounds of ingest, pretrain step, "
                             "fine-tune step and inference pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs, for the benchmark's self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(crystalpretrain.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"benchmark: crystalpretrain imported from outside {SRC}")
    print("env " + json.dumps(env_info()), flush=True)
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
