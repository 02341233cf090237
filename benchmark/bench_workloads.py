"""The benchmark's workloads: inputs made from a seed, one op each, output checks.

A workload turns its seed into a fixed list of requests that differ in their
``edit.seed``, the run seed that ``fiaedit edit --seed`` sets.  The model
seed is part of each workload's configuration: the toy network's weights
stand in for a fixed pretrained checkpoint.  One op is one call into
fiaedit's public API (``run_edit`` or ``run_ablation``) on one prepared
request.  Every op result is checked: values must be finite, a request run
twice must give the same bytes, and the stock-seed request of each workload
must match the pinned reference in ``reference.json``.

fiaedit is imported from the ``src/`` directory of the checkout that holds
this file, never from an installed copy.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

if not (SRC / "fiaedit" / "__init__.py").is_file():
    raise ImportError(f"no fiaedit sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fiaedit  # noqa: E402
from fiaedit import ablation, codec, config, engine, fixtures, metrics  # noqa: E402
from fiaedit.model import VelocityModel  # noqa: E402

if Path(fiaedit.__file__).resolve().parent != SRC / "fiaedit":
    raise ImportError(f"fiaedit was imported from {fiaedit.__file__}, not {SRC}")

# relative tolerance of the pinned-reference check: admits reassociation
# drift (about 1e-15) and rejects any edit that differs in substance
REFERENCE_RTOL = 1e-9

EDIT_PROMPTS = """
prompts.source = a small bright blob on a striped background
prompts.target = a dark square on a plain background
"""

# the base configuration of scripts/run_component_grid.py, without edit.seed
_SWEEP_BASE = """
model.channels = 12
model.seed = 11
schedule.steps = 12
guidance.mu_src = 1.0
guidance.mu_tar = 1.0
edit.noise_mode = none
fia.fij_block_lo = 0
fia.fij_block_hi = 5
codec.patch = 2
"""

SWEEP_GRID = "fij_enabled=false,true;fri_mode=off,add,freq"

# the edit seed of the request whose outputs reference.json pins
STOCK_EDIT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "edit": one run_edit per op; "sweep": one run_ablation per op
    fixture: str
    config_text: str  # everything but edit.seed
    n_requests: int  # requests made from the workload seed, cycled by the ops
    bypass_check: bool = False  # compare one result with run_edit(bypass_fia=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="edit-blob16-full",
            kind="edit",
            fixture="blob16",
            config_text=EDIT_PROMPTS,
            n_requests=16,
        ),
        Workload(
            name="edit-blob32-off",
            kind="edit",
            fixture="blob32",
            config_text=EDIT_PROMPTS + "fia.fri_enabled = false\nfia.fij_enabled = false\n",
            n_requests=4,
            bypass_check=True,
        ),
        Workload(
            name="sweep-blob16-grid",
            kind="sweep",
            fixture="blob16",
            config_text=EDIT_PROMPTS + _SWEEP_BASE,
            n_requests=2,
        ),
    )
}


@dataclass(frozen=True)
class Prepared:
    """One request, ready to run: what an ``edit`` invocation sets up first."""

    cfg: config.RunConfig
    image: codec.ImageBuffer
    mask: np.ndarray
    model: VelocityModel
    request: engine.EditRequest
    grid: ablation.GridSpec | None


def request_seeds(w: Workload, seed: int) -> list[int]:
    """The edit seeds the workload seed stands for."""
    rng = random.Random(f"{w.name}/{seed}")
    return [rng.randrange(1, 1_000_000) for _ in range(w.n_requests)]


def _build_edit_request(cfg, latent):
    # looked up at call time: the helper may move from ablation to config
    build = getattr(config, "build_edit_request", None) or ablation.build_edit_request
    return build(cfg, latent)


def prepare(w: Workload, edit_seed: int = STOCK_EDIT_SEED) -> Prepared:
    """Parse the config, load and encode the fixture, build the model, embed prompts."""
    cfg = config.parse_config(w.config_text + f"edit.seed = {edit_seed}\n")
    image, mask = fixtures.load_fixture(w.fixture)
    latent = codec.encode(image, cfg.codec_patch)
    return Prepared(
        cfg=cfg,
        image=image,
        mask=mask,
        model=VelocityModel(cfg.make_model_config()),
        request=_build_edit_request(cfg, latent),
        grid=ablation.parse_grid(SWEEP_GRID) if w.kind == "sweep" else None,
    )


def run_op(w: Workload, prep: Prepared, bypass_fia: bool = False):
    """One op: the public call whose wall time the benchmark measures."""
    if w.kind == "sweep":
        return ablation.run_ablation(prep.cfg, prep.grid, fixture=w.fixture)
    if bypass_fia:
        return engine.run_edit(prep.model, prep.request, bypass_fia=True)
    return engine.run_edit(prep.model, prep.request)


def output_problem(w: Workload, prep: Prepared, result) -> str | None:
    """Why an op result is unusable, or None when it passes the basic checks."""
    if w.kind == "sweep":
        bad = [row.delta for row in result.rows if row.status != "ok"]
        if bad:
            return f"{len(bad)} grid cells failed, first {bad[0]}"
        if len(result.rows) != len(prep.grid.cells()):
            return f"{len(result.rows)} rows for {len(prep.grid.cells())} cells"
        values = [v for row in result.rows for v in row.metrics.values()]
        if not np.all(np.isfinite(values)):
            return "non-finite cell metrics"
        return None
    latent = result.final_latent
    if latent.shape != prep.request.source_latent.shape:
        return f"final latent has shape {latent.shape}"
    if not np.all(np.isfinite(latent)):
        return "non-finite final latent"
    return None


def output_bytes(w: Workload, result) -> bytes:
    """The bytes two runs of one request must agree on."""
    if w.kind == "sweep":
        return ablation.format_report(result).encode()
    return result.final_latent.tobytes()


def bg_psnr_db(w: Workload, prep: Prepared, result) -> float:
    """Background-masked PSNR of the decoded edit against the source image."""
    if w.kind == "sweep":
        return float(np.mean([row.metrics["psnr"] for row in result.rows]))
    edited = codec.decode(result.final_latent, prep.cfg.codec_patch)
    return metrics.psnr(edited, prep.image, prep.mask)


def summarize(w: Workload, prep: Prepared, result) -> dict[str, list[float]]:
    """The values pinned for a reference request, grouped into vectors."""
    if w.kind == "sweep":
        names = result.rows[0].metrics.keys()
        fields = {n: [row.metrics[n] for row in result.rows] for n in names}
    else:
        fields = {"final_latent": result.final_latent.ravel().tolist()}
    fields["bg_psnr_db"] = [bg_psnr_db(w, prep, result)]
    return fields


def reference_mismatch(
    got: dict[str, list[float]], want: dict[str, list[float]], rtol: float = REFERENCE_RTOL
) -> str | None:
    """Compare each vector with its reference, relative to the reference's max norm."""
    if set(got) != set(want):
        return f"fields {sorted(got)} differ from reference fields {sorted(want)}"
    for name, ref in want.items():
        a, b = np.asarray(got[name]), np.asarray(ref)
        if a.shape != b.shape:
            return f"{name}: shape {a.shape} differs from reference {b.shape}"
        err = float(np.max(np.abs(a - b)))
        if not err <= rtol * float(np.max(np.abs(b))):
            return f"{name}: max deviation {err:.3e} from reference"
    return None


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
