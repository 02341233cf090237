"""Property tests at the input boundaries, and of the lockstep engine.

Whatever the input, the only outcomes allowed are a result or a package
error (``FiaEditError``) or ``ValueError``; the CLI always returns an exit
code and never raises.  A config document may only parse or raise
``FiaEditError``.

Lockstep grids rest on batch independence: on random small models, a
state's velocities and packets are bit-identical alone and inside a batch
of random siblings, and a grid run in lockstep reports the same bytes as
its cells run one by one.

The acceptance invariants hold on random small configs too: a zero edit
returns its source bit for bit, a disabled constraint is bit-identical to
the bypassed engine, and every run ends finite or in a ``FiaEditError``.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from conftest import (
    attend,
    branches,
    delta_pairs,
    keys_major,
    record_velocities,
    report_entries,
    traced_peak,
)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fiaedit.ablation import (
    _GRID_AXES,
    REPORT_SCHEMA,
    AblationReport,
    AblationRow,
    GridSpec,
    apply_cell,
    format_report,
    parse_grid,
    run_ablation,
)
from fiaedit.cli import main
from fiaedit.codec import ImageBuffer, decode, encode, read_ppm
from fiaedit.config import _SCHEMA, RunConfig, build_edit_request, parse_config
from fiaedit.engine import EditRequest, run_edit, run_edits
from fiaedit.errors import ConfigError, EditRunError, FiaEditError
from fiaedit.fia import FiaConfig, FriMode, _step_states, constrained_velocities
from fiaedit.fixtures import load_fixture
from fiaedit.metrics import compute_report
from fiaedit.model import (
    AttentionPacket,
    AttnKind,
    GuidanceConfig,
    HookPlan,
    ModelConfig,
    ReplaceQK,
    VelocityModel,
    peak_bytes,
)
from fiaedit.prompts import embed_prompt, embeddings_equal
from fiaedit.schedule import NoiseMode, make_linear_schedule
from fiaedit.spectral import FusionWeights
from spec import reference_step

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# a P6 header whose fields are plausible or not, followed by arbitrary bytes
_SIZES = st.integers(min_value=-3, max_value=12) | st.integers(min_value=-10**12, max_value=10**12)
_P6_FILES = st.builds(
    lambda w, h, maxval, sep, tail: b"P6" + sep + f"{w} {h}".encode() + sep
    + str(maxval).encode() + sep + tail,
    _SIZES,
    _SIZES,
    st.sampled_from([255, 0, 65535, -1]),
    st.sampled_from([b"\n", b" ", b"\t", b"\n# c\n"]),
    st.binary(max_size=600),
)
_PPM_BYTES = st.binary(max_size=300) | (st.binary(max_size=300).map(lambda b: b"P6\n" + b)) | _P6_FILES


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.ppm"


@FUZZ
@given(data=_PPM_BYTES)
def test_read_ppm_gives_an_image_or_a_value_error(fuzz_path, data):
    fuzz_path.write_bytes(data)
    try:
        img = read_ppm(str(fuzz_path))
    except (ValueError, FiaEditError):
        return
    assert isinstance(img, ImageBuffer)


@FUZZ
@given(data=_PPM_BYTES)
def test_metrics_cli_always_returns_an_exit_code(fuzz_path, data):
    fuzz_path.write_bytes(data)
    rc = main(["metrics", str(fuzz_path), str(fuzz_path)])
    assert rc in (0, 1, 2)


_AXIS_TEXT = st.lists(
    st.tuples(
        st.sampled_from(sorted(_GRID_AXES)) | st.text(max_size=8),
        st.lists(st.text(max_size=8) | st.sampled_from(["true", "off", "0.9", "1-2", "nan"]),
                 max_size=4),
    ),
    max_size=4,
).map(lambda axes: ";".join(f"{name}={','.join(values)}" for name, values in axes))


_AXIS_VALUES = {
    "fri_mode": ("off", "add", "freq"),
    "fij_enabled": ("true", "false"),
    "noise_mode": ("none", "fresh", "reused"),
    "filter_sigma": ("0.2", "0.9", "5.0", "-1.0"),
    "fij_block_range": ("auto", "0-0", "0-1", "1-2", "0-9"),
}


@st.composite
def _well_formed_text(draw):
    """Grid text of well-formed values, some with whitespace that int() takes."""
    names = draw(st.lists(st.sampled_from(sorted(_AXIS_VALUES)), min_size=1, max_size=3))
    spaced = {"fij_block_range": ("4 -5", "1-\x852", " 0-1 ")}
    return ";".join(
        f"{name}=" + ",".join(draw(st.lists(
            st.sampled_from(_AXIS_VALUES[name] + spaced.get(name, ())), min_size=1, max_size=3
        )))
        for name in names
    )


@FUZZ
@given(spec=st.text(max_size=80) | _AXIS_TEXT | _well_formed_text())
def test_parse_grid_gives_a_grid_or_a_value_error(spec):
    try:
        grid = parse_grid(spec)
    except (ValueError, FiaEditError):
        return
    assert isinstance(grid, GridSpec)
    cells = grid.cells()
    assert cells
    # every accepted grid's delta text reads back as written
    rows = tuple(AblationRow(delta=cell, status="error", error="e") for cell in cells)
    report = AblationReport(seed=0, fixture="blob16", axes=grid.axis_names, rows=rows)
    text = format_report(report)
    entries = report_entries(text)
    assert len(entries) == len(text.splitlines()) == 5 + 3 * len(cells)
    assert entries["schema"] == REPORT_SCHEMA
    assert (entries["seed"], entries["fixture"]) == ("0", "blob16")
    assert tuple(entries["axes"].split(",")) == grid.axis_names
    assert entries["cells"] == str(len(cells))
    assert [delta_pairs(entries[f"cell.{i}.delta"]) for i in range(len(cells))] == cells
    for i in range(len(cells)):
        assert entries[f"cell.{i}.status"] == "error"
        assert entries[f"cell.{i}.error"] == "e"


_VALUE_TEXT = (
    st.integers(min_value=-3, max_value=60).map(str)
    | st.integers(min_value=-10**30, max_value=10**30).map(str)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.sampled_from(["true", "false", "freq", "add", "none", "reused", "fresh",
                       "mse,psnr", "ssim,bogus", '"quoted"', '"add"', '"none"', '"',
                       "", "1e309", "0x10"])
    | st.text(max_size=12)
)
_CONFIG_LINE = (
    st.tuples(st.sampled_from(sorted(_SCHEMA)) | st.text(max_size=10), _VALUE_TEXT).map(
        lambda kv: f"{kv[0]} = {kv[1]}"
    )
    | st.text(max_size=20)
)


@FUZZ
@given(lines=st.lists(_CONFIG_LINE, max_size=8))
def test_parse_config_gives_a_config_or_a_package_error(lines):
    try:
        cfg = parse_config("\n".join(lines))
    except FiaEditError:
        return
    assert isinstance(cfg, RunConfig)


# -- lockstep: batch independence and grid equivalence ------------------------

LOCKSTEP_FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
_TEXTS = ("a small bright blob", "a dark square on a plain background", "stripes")


@st.composite
def _model_configs(draw, channels=st.integers(min_value=1, max_value=4), heads=(1, 2, 4)):
    d_model = draw(st.sampled_from([4, 8]))  # embed_prompt needs 4 or more
    return ModelConfig(
        n_blocks_dual=draw(st.integers(min_value=1, max_value=3)),
        n_blocks_cross_only=draw(st.integers(min_value=0, max_value=2)),
        d_model=d_model,
        n_heads=draw(st.sampled_from([h for h in heads if d_model % h == 0])),
        seed=draw(st.integers(min_value=0, max_value=1000)),
        channels=draw(channels),
    )


@functools.lru_cache(maxsize=None)
def _prompt(text: str, d_model: int):
    return embed_prompt(text, d_model)


def _random_overrides(cfg, rng, n_tok, loud):
    """Q/K and full-packet overrides at random sites; ``loud`` Q leaves the ±60 band."""
    heads, d_head = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = 1e3 if loud else 1.0
    overrides = {}
    for b in range(cfg.n_blocks):
        if cfg.has_self(b) and rng.random() < 0.5:
            q, k = rng.standard_normal((2, heads, n_tok, d_head))
            overrides[(b, AttnKind.SELF)] = ReplaceQK(q=scale * q, k=k)
        if rng.random() < 0.3:
            q = rng.standard_normal((heads, n_tok, d_head))
            k, v = rng.standard_normal((2, heads, 3, d_head))
            text = _prompt("stripes", cfg.d_model)
            pkt = AttentionPacket(scale * q, k, v, text)
            overrides[(b, AttnKind.CROSS)] = pkt
    return overrides


def _check_each_branch_alone(cfg, grid, data, twins):
    """One forward of random states: each is bit-identical run alone on a fresh copy.

    Without ``twins`` every state runs one pass.  With ``twins`` a state
    may run both, which share the prefix up to block 0's self-attention
    whether or not the conditional pass overrides it, and states draw their
    latents from a smaller pool, so some share one array object.
    """
    model = VelocityModel(cfg)
    n = data.draw(st.integers(min_value=1, max_value=5), label="states")
    mus = (0.0, 1.0, 2.5) if twins else (0.0, 1.0)
    mu = data.draw(st.lists(st.sampled_from(mus), min_size=n, max_size=n), label="mu")
    n_x = data.draw(st.integers(min_value=1, max_value=n), label="distinct") if twins else n
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = rng.standard_normal((n_x, cfg.channels, *grid))
    x *= np.where(rng.random(n_x) < 0.3, 1e3, 1.0)[:, None, None, None]
    pool = list(x)  # a state drawing pool[k] gets that very array object
    latents = [pool[k] for k in rng.integers(0, n_x, n)] if twins else pool
    # repeated texts give the same embedding object, as the cells of a grid share one
    prompts = [_prompt(_TEXTS[t], cfg.d_model) for t in rng.integers(0, len(_TEXTS), n)]
    sites = frozenset(
        (b, kind) for b in range(cfg.n_blocks) for kind in AttnKind if cfg.contains((b, kind))
    )
    hooks = [
        HookPlan(
            # without twins, a capture would add a conditional pass at mu 0
            capture=sites if rng.random() < 0.7 and (twins or m) else frozenset(),
            overrides=_random_overrides(cfg, rng, grid[0] * grid[1], loud=rng.random() < 0.5),
        )
        for m in mu
    ]
    states = list(zip(latents, prompts, mu, hooks))
    out = model._forward(states, 0.5)
    for (x, p, m, plan), (v_cond, v_uncond, packets) in zip(states, out, strict=True):
        (alone,) = model._forward([(x.copy(), p, m, plan)], 0.5)
        for v, ref in zip((v_cond, v_uncond), alone[:2]):
            assert (v is None) == (ref is None)
            assert v is None or np.array_equal(v, ref)
        alone_packets = alone[2]
        expected = plan.capture if v_cond is not None else set()
        assert packets.keys() == alone_packets.keys() == expected
        for site, pkt in packets.items():
            ref = alone_packets[site]
            assert np.array_equal(pkt.q, ref.q)
            assert np.array_equal(pkt.k, ref.k)
            assert np.array_equal(pkt.v, ref.v)
            if pkt.text_embedding is not None:
                assert embeddings_equal(pkt.text_embedding, ref.text_embedding)


_GRIDS = st.tuples(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))


@LOCKSTEP_FUZZ
@given(cfg=_model_configs(), grid=_GRIDS, data=st.data())
def test_branch_is_bit_identical_alone_and_among_random_siblings(cfg, grid, data):
    _check_each_branch_alone(cfg, grid, data, twins=False)


@LOCKSTEP_FUZZ
@given(cfg=_model_configs(), grid=_GRIDS, data=st.data())
def test_branches_sharing_a_latent_are_bit_identical_alone(cfg, grid, data):
    _check_each_branch_alone(cfg, grid, data, twins=True)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cfg=_model_configs(channels=st.integers(min_value=1, max_value=12)),
    grid=st.tuples(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16)),
    words=st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=2),
    passes=st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 2.5]), st.integers(min_value=0, max_value=1)),
        min_size=1,
        max_size=3,
    ),
    capture=st.booleans(),
    fia=st.none() | st.builds(FiaConfig, fri_mode=st.sampled_from(FriMode), fij_enabled=st.booleans()),
)
# 2 heads on 20x20, the smallest square grid whose self sites split (which
# test_model.py's split-size test asserts): every self site runs its cores
# over five query tiles, on two threads, and the two score tiles are the
# peak's largest term.  One head on 32x32 runs each core over 16 tiles,
# which a single core shares out between the threads.  2 heads on 16x16
# run each core over two tiles on the calling thread
@example(
    cfg=ModelConfig(n_blocks_dual=2, n_blocks_cross_only=1, channels=3),
    grid=(20, 20),
    words=[1],
    passes=[(2.5, 0)],
    capture=False,
    fia=None,
)
@example(
    cfg=ModelConfig(n_heads=1, n_blocks_dual=2, n_blocks_cross_only=1, channels=3),
    grid=(32, 32),
    words=[1],
    passes=[(1.0, 0)],
    capture=False,
    fia=None,
)
@example(
    cfg=ModelConfig(n_blocks_dual=2, n_blocks_cross_only=1, channels=3),
    grid=(16, 16),
    words=[6, 40],
    passes=[(2.5, 0), (2.5, 1), (2.5, 1)],
    capture=True,
    fia=FiaConfig(),
)
def test_peak_bytes_bounds_the_traced_peak_of_a_forward(cfg, grid, words, passes, capture, fia):
    # up to three states of up to two passes each, so 1-6 branches; or a
    # step of FIA on a source and up to two targets, each target's probe
    # with its fork, so up to 8.  A state's pass is its guidance scale and
    # the index of its prompt's word count
    n = len(passes)
    mus = [mu for mu, _ in passes]
    sites = frozenset(
        (b, kind) for b in range(cfg.n_blocks) for kind in AttnKind if cfg.contains((b, kind))
    )
    plan = HookPlan(capture=sites if capture else frozenset())
    x = np.random.default_rng(0).standard_normal((n, cfg.channels, *grid))
    prompts = [
        _prompt(" ".join(f"w{i}" for i in range(words[j % len(words)])), cfg.d_model)
        for _, j in passes
    ]
    states = list(zip(x, prompts, mus, [plan] * n))
    model = VelocityModel(cfg)
    if n > 1 and fia is not None:
        states, _ = _step_states(
            model, x[0], list(x[1:]), prompts[0], prompts[1:], 0, 1,
            GuidanceConfig(mus[0], mus[1]),
            [dataclasses.replace(fia, fij_block_range=(0, cfg.n_blocks - 1))] * (n - 1),
        )
    out = model._forward(states, 0.5)
    # the prompts the conditional passes attend to
    attended = {id(p): p for (_, p, _, _), (v_cond, _, _) in zip(states, out) if v_cond is not None}
    longest = max((len(p.tokens) for p in attended.values()), default=0)
    bound = peak_bytes(cfg, grid, branches(states, out), longest, len(attended))
    assert traced_peak(model, states) <= bound


@FUZZ
@given(
    heads=st.integers(min_value=1, max_value=2),
    queries=st.integers(min_value=1, max_value=64),
    keys=st.integers(min_value=1, max_value=64),
    d_head=st.integers(min_value=1, max_value=4),
    q_scale=st.floats(min_value=0.0, max_value=1e3),
    k_scale=st.floats(min_value=0.0, max_value=1e3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_attention_core_matches_the_shifted_softmax(
    heads, queries, keys, d_head, q_scale, k_scale, seed
):
    rng = np.random.default_rng(seed)
    q = q_scale * rng.standard_normal((heads, queries, d_head))
    k = k_scale * rng.standard_normal((heads, keys, d_head))
    v = rng.standard_normal((heads, keys, d_head))
    out = attend(q, k, v)
    # the reference reads the core's own (heads, keys, queries) scores:
    # rounding in the score product belongs to the inputs, not to the
    # normalisation under test
    qs, k, _ = keys_major(q, k, v)
    scores = np.matmul(k, qs)
    weights = np.exp(scores - scores.max(axis=-2, keepdims=True))
    expected = (weights / weights.sum(axis=-2, keepdims=True)).swapaxes(-1, -2) @ v
    assert np.all(np.isfinite(out))
    assert np.abs(out - expected).max() <= keys * np.finfo(float).eps * np.abs(v).max()


@st.composite
def _grids(draw):
    names = draw(
        st.lists(st.sampled_from(sorted(_AXIS_VALUES)), min_size=1, max_size=2, unique=True)
    )
    axes = []
    for name in names:
        values = draw(
            st.lists(st.sampled_from(_AXIS_VALUES[name]), min_size=1, max_size=3, unique=True)
        )
        axes.append(f"{name}={','.join(values)}")
    return parse_grid(";".join(axes))


def _cell_by_cell_report(base: RunConfig, grid: GridSpec, fixture: str) -> str:
    """The grid run one ``run_edit`` per cell, each cell's request built alone."""
    image, mask = load_fixture(fixture)
    latent = encode(image, base.codec_patch)
    model = VelocityModel(base.make_model_config())
    rows = []
    for delta in grid.cells():
        try:
            cfg = apply_cell(base, delta)
            trace = run_edit(model, build_edit_request(cfg, latent))
            metrics = compute_report(decode(trace.final_latent, cfg.codec_patch), image, mask)
            rows.append(AblationRow(delta, "ok", metrics))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}".splitlines()[0]
            rows.append(AblationRow(delta, "error", error=error))
    return format_report(AblationReport(base.edit_seed, fixture, grid.axis_names, tuple(rows)))


@LOCKSTEP_FUZZ
@given(
    cfg=_model_configs(channels=st.just(12)),  # channels come from the patch
    patch=st.sampled_from([2, 4, 8]),
    steps=st.integers(min_value=1, max_value=4),
    mu=st.tuples(st.sampled_from([0.0, 1.0, 1.5, 13.5]), st.sampled_from([0.0, 1.0, 1.5, 13.5])),
    prompts=st.tuples(st.sampled_from(_TEXTS), st.sampled_from(_TEXTS)),
    grid=_grids(),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_lockstep_grid_reports_the_bytes_of_its_cells_run_one_by_one(
    cfg, patch, steps, mu, prompts, grid, seed
):
    text = f"""
model.channels = {3 * patch**2}
model.blocks_dual = {cfg.n_blocks_dual}
model.blocks_cross_only = {cfg.n_blocks_cross_only}
model.d_model = {cfg.d_model}
model.n_heads = {cfg.n_heads}
model.seed = {cfg.seed}
schedule.steps = {steps}
guidance.mu_src = {mu[0]}
guidance.mu_tar = {mu[1]}
prompts.source = {prompts[0]}
prompts.target = {prompts[1]}
edit.seed = {seed}
codec.patch = {patch}
"""
    if not cfg.n_blocks_cross_only:
        # the default injection range is the cross-only tail, which this model lacks
        with pytest.raises(ConfigError, match="no cross-only blocks"):
            parse_config(text)
        text += f"fia.fij_block_lo = 0\nfia.fij_block_hi = {cfg.n_blocks - 1}\n"
    base = parse_config(text)
    lockstep = format_report(run_ablation(base, grid, "blob16"))
    assert lockstep == _cell_by_cell_report(base, grid, "blob16")


# -- acceptance invariants on random small configs ----------------------------

_MUS = st.sampled_from([0.0, 1.0, 1.5, 13.5])
_LATENT_GRIDS = st.tuples(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))


@st.composite
def _fia_configs(draw, model_cfg: ModelConfig, total_steps: int):
    """Every FRI mode (off, add, freq), and FIJ windows and ranges inside the model.

    The default range, the cross-only tail, exists only when the model has one.
    """
    lo = draw(st.integers(min_value=0, max_value=model_cfg.n_blocks - 1))
    hi = draw(st.integers(min_value=lo, max_value=model_cfg.n_blocks - 1))
    ranges = st.just((lo, hi))
    if model_cfg.n_blocks_cross_only:
        ranges |= st.none()
    return FiaConfig(
        fri_enabled=draw(st.booleans()),
        fri_mode=draw(st.sampled_from(FriMode)),
        filter_sigma=draw(st.sampled_from([0.2, 0.9, 5.0])),
        fij_enabled=draw(st.booleans()),
        fij_step_cutoff=draw(st.none() | st.integers(min_value=0, max_value=total_steps)),
        fij_block_range=draw(ranges),
    )


_LAMBDAS = st.sampled_from([0.0, 0.2, 0.3, 0.5, 0.8, 1.0])


@LOCKSTEP_FUZZ
@given(
    cfg=_model_configs(heads=(1, 2)),
    grid=_LATENT_GRIDS,
    total=st.integers(min_value=1, max_value=8),
    sigma=st.sampled_from([1.0, 0.73, 0.5, 0.05, 0.0]),
    mu=st.tuples(*[st.sampled_from([0.0, 1.0, 2.5])] * 2),
    n_targets=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
def test_a_step_is_the_reference_step_bit_for_bit(cfg, grid, total, sigma, mu, n_targets, data):
    # targets in lockstep, each with its own constraint, half of them in the
    # source's own state and prompt
    step = data.draw(st.integers(min_value=0, max_value=total - 1), label="step")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x_src = rng.standard_normal((cfg.channels, *grid))
    p_src = _prompt(_TEXTS[0], cfg.d_model)
    x_tars, p_tars, cfgs = [], [], []
    for _ in range(n_targets):
        symmetric = data.draw(st.booleans(), label="symmetric")
        text = _TEXTS[0] if symmetric else data.draw(st.sampled_from(_TEXTS), label="text")
        x_tars.append(x_src if symmetric else rng.standard_normal(x_src.shape))
        p_tars.append(_prompt(text, cfg.d_model))
        fusion = FusionWeights(*(data.draw(_LAMBDAS, label=f"lambda{i}") for i in (1, 2)))
        cfgs.append(dataclasses.replace(data.draw(_fia_configs(cfg, total)), fusion=fusion))
    model, guidance = VelocityModel(cfg), GuidanceConfig(*mu)
    args = (model, x_src, x_tars, p_src, p_tars, sigma, step, total, guidance, cfgs)
    v_src, v_tars = constrained_velocities(*args)
    ref_src, ref_tars = reference_step(*args)
    assert np.array_equal(v_src, ref_src)
    for v_tar, ref_tar in zip(v_tars, ref_tars, strict=True):
        assert np.array_equal(v_tar, ref_tar)


@LOCKSTEP_FUZZ
@given(
    cfg=_model_configs(),
    grid=_LATENT_GRIDS,
    steps=st.integers(min_value=1, max_value=4),
    mu=_MUS,
    text=st.sampled_from(_TEXTS),
    data=st.data(),
)
def test_zero_edit_returns_the_source_bit_for_bit(cfg, grid, steps, mu, text, data):
    prompt = _prompt(text, cfg.d_model)
    source = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(
        (cfg.channels, *grid)
    )
    req = EditRequest(
        source_latent=source,
        p_src=prompt,
        p_tar=prompt,
        schedule=make_linear_schedule(steps, 0.0),
        guidance=GuidanceConfig(mu_src=mu, mu_tar=mu),
        fia=data.draw(_fia_configs(cfg, steps)),
        seed=data.draw(st.integers(0, 1000)),
        noise_mode=NoiseMode.NONE,
    )
    assert np.array_equal(run_edit(VelocityModel(cfg), req).final_latent, source)


@LOCKSTEP_FUZZ
@given(
    cfg=_model_configs(),
    grid=_LATENT_GRIDS,
    steps=st.integers(min_value=1, max_value=4),
    mu=st.tuples(_MUS, _MUS),
    texts=st.tuples(st.sampled_from(_TEXTS), st.sampled_from(_TEXTS)),
    noise_mode=st.sampled_from(NoiseMode),
    data=st.data(),
)
def test_disabled_fia_equals_the_bypassed_engine(cfg, grid, steps, mu, texts, noise_mode, data):
    fia = dataclasses.replace(
        data.draw(_fia_configs(cfg, steps)), fri_enabled=False, fij_enabled=False
    )
    req = EditRequest(
        source_latent=np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        .standard_normal((cfg.channels, *grid)),
        p_src=_prompt(texts[0], cfg.d_model),
        p_tar=_prompt(texts[1], cfg.d_model),
        schedule=make_linear_schedule(steps, 0.0),
        guidance=GuidanceConfig(mu_src=mu[0], mu_tar=mu[1]),
        fia=fia,
        seed=data.draw(st.integers(0, 1000)),
        noise_mode=noise_mode,
    )
    model = VelocityModel(cfg)
    via_fia, fia_steps = record_velocities(run_edit, model, req)
    bypassed, bypass_steps = record_velocities(run_edit, model, req, bypass_fia=True)
    assert np.array_equal(via_fia.final_latent, bypassed.final_latent)
    assert len(fia_steps) == steps
    for (a_src, a_tar), (b_src, b_tar) in zip(fia_steps, bypass_steps, strict=True):
        assert np.array_equal(a_src, b_src)
        assert np.array_equal(a_tar, b_tar)


def _identity_arms(cfg, grid, steps, mu, texts, noise_mode, data, arms):
    """Final latent bytes and step records of each of two FiaConfigs, from one ``run_edits``."""
    req = EditRequest(
        source_latent=np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        .standard_normal((cfg.channels, *grid)),
        p_src=_prompt(texts[0], cfg.d_model),
        p_tar=_prompt(texts[1], cfg.d_model),
        schedule=make_linear_schedule(steps, 0.0),
        guidance=GuidanceConfig(mu_src=mu[0], mu_tar=mu[1]),
        fia=arms[0],
        seed=data.draw(st.integers(0, 1000)),
        noise_mode=noise_mode,
    )
    traces = run_edits(VelocityModel(cfg), [dataclasses.replace(req, fia=fia) for fia in arms])
    assert not any(isinstance(t, EditRunError) for t in traces), traces
    return [(t.final_latent.tobytes(), t.records) for t in traces]


# the two metamorphic identities of test_fia.TestEditIdentities, drawn
_IDENTITY_RUNS = dict(
    cfg=_model_configs(heads=(1, 2)),
    grid=st.tuples(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8)),
    steps=st.integers(min_value=1, max_value=4),
    mu=st.tuples(_MUS, _MUS),
    texts=st.tuples(st.sampled_from(_TEXTS), st.sampled_from(_TEXTS)),
    noise_mode=st.sampled_from(NoiseMode),
    data=st.data(),
)


@LOCKSTEP_FUZZ
@given(**_IDENTITY_RUNS)
def test_freq_fusion_at_even_weights_is_add(cfg, grid, steps, mu, texts, noise_mode, data):
    fia = dataclasses.replace(data.draw(_fia_configs(cfg, steps)), fri_enabled=True)
    even = dataclasses.replace(fia, fri_mode=FriMode.FREQ, fusion=FusionWeights(0.5, 0.5))
    add = dataclasses.replace(fia, fri_mode=FriMode.ADD)
    a, b = _identity_arms(cfg, grid, steps, mu, texts, noise_mode, data, (even, add))
    assert a == b


@LOCKSTEP_FUZZ
@given(**_IDENTITY_RUNS)
def test_injection_with_a_closed_window_is_injection_off(
    cfg, grid, steps, mu, texts, noise_mode, data
):
    fia = data.draw(_fia_configs(cfg, steps))
    closed = dataclasses.replace(fia, fij_enabled=True, fij_step_cutoff=0)
    off = dataclasses.replace(fia, fij_enabled=False)
    a, b = _identity_arms(cfg, grid, steps, mu, texts, noise_mode, data, (closed, off))
    assert a == b


@LOCKSTEP_FUZZ
@given(
    cfg=_model_configs(channels=st.just(3)),  # codec.patch = 1
    grid=_LATENT_GRIDS,
    steps=st.integers(min_value=1, max_value=4),
    mu=st.tuples(*[st.sampled_from([0.0, 1.0, 1.5, 13.5, 1e150, 1e300])] * 2),
    scale=st.sampled_from([1.0, 1e3, 1e150]),
    texts=st.tuples(st.sampled_from(_TEXTS), st.sampled_from(_TEXTS)),
    fia=st.fixed_dictionaries(
        {
            "fri_enabled": st.sampled_from(["true", "false"]),
            "fri_mode": st.sampled_from(["freq", "add"]),
            "lambda1": st.sampled_from([0.8, 0.5, 2.0]),
            "filter_sigma": st.sampled_from([0.2, 0.9, 5.0]),
            "fij_enabled": st.sampled_from(["true", "false"]),
            "fij_step_cutoff": st.integers(min_value=-1, max_value=5),
        }
    ),
    # the default tail, or a range that may run past the model's last block
    block_range=st.just((-1, -1)) | st.lists(st.integers(0, 5), min_size=2, max_size=2).map(sorted),
    noise_mode=st.sampled_from(["none", "fresh", "reused"]),
    seed=st.integers(min_value=0, max_value=1000),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_run_ends_finite_or_in_a_package_error(
    cfg, grid, steps, mu, scale, texts, fia, block_range, noise_mode, seed
):
    fia = {**fia, "fij_block_lo": block_range[0], "fij_block_hi": block_range[1]}
    fia_lines = "".join(f"fia.{key} = {value}\n" for key, value in fia.items())
    text = f"""
model.channels = 3
model.blocks_dual = {cfg.n_blocks_dual}
model.blocks_cross_only = {cfg.n_blocks_cross_only}
model.d_model = {cfg.d_model}
model.n_heads = {cfg.n_heads}
model.seed = {cfg.seed}
schedule.steps = {steps}
guidance.mu_src = {mu[0]!r}
guidance.mu_tar = {mu[1]!r}
prompts.source = {texts[0]}
prompts.target = {texts[1]}
edit.seed = {seed}
edit.noise_mode = {noise_mode}
codec.patch = 1
""" + fia_lines
    latent = scale * np.random.default_rng(seed).standard_normal((3, *grid))
    try:
        run_cfg = parse_config(text)
        model = VelocityModel(run_cfg.make_model_config())
        trace = run_edit(model, build_edit_request(run_cfg, latent))
    except FiaEditError:
        return
    assert np.all(np.isfinite(trace.final_latent))
