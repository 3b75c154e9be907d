"""Fixed-seed outputs pinned as SHA-256 digests.

Each cell runs a few run_trial records at every T from 0 to 9 on one
network and protocol, and hashes their write_trial_csv text; each sweep
hashes the summary CSV and the per-T trial CSVs of one sweep over T.  The
digests were taken from the code before the adaptive and grid spreads
shared one token walk, so a change that moves any draw, infection order or
estimate shows here.  The line's (line-ml on polya-line spreads) were taken
when a polya-line spread stopped infecting at the end spies: before, it
could infect one node past the spy that reports, and only n_infected
differed.  Each estimator cell runs map-leaf, paad-map or spy-irregular,
the estimators that read the network's degrees and neighbours, at several
T on the spreads they read, and spy-snapshot on the regular tree.  Each
ball cell runs first-spy, at T = 0..9, on plain diffusion or flooding.
Each hand-over sweep runs irregular-ml, or first-spy on a ball spread,
over T, so that every trial runs to the largest T and scores the others
on its snapshot at each (InfectionSnapshot.at), on the pool too.
irregular-ml scores only even T, where no snapshot is mid-pass; the
estimators that orient a mid-pass snapshot are pinned by the paad-map
cells at odd T.  The line spread cell hashes spread_polya_line's own
outputs, to a horizon of 0..9 and to the first end spy's report.  To
regenerate after a declared output change, print cell_digest(name),
sweep_digest(name, tmp_dir), estimator_digest(name),
estimator_digest(name, BALL_CELLS), sweep_digest("hand-over", tmp_dir,
*HAND_OVER_SWEEPS[name]) for every name, line_digest() and
line_spread_digest()."""

import hashlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from anonspread.graph import prune_min_degree, synthetic_heavy_tail
from anonspread.harness import ExperimentConfig, multi_snapshot_detection_mc, run_trial, sweep, write_trial_csv
from anonspread.spread import ProtocolParams, spread_polya_line
from helpers import summary_csv_text

GRAPH = prune_min_degree(synthetic_heavy_tail(200, 3, seed=2), 3)
NETWORKS = {  # name -> ExperimentConfig fields
    "regular-tree": dict(network="regular-tree", d=4),
    "galton-watson": dict(network="galton-watson", degree_table={2: 0.3, 3: 0.4, 5: 0.3}),
    "explicit": dict(network="explicit", graph=GRAPH),
}
PROTOCOLS = {  # name -> ProtocolParams fields
    "exact": dict(kind="adaptive", d0=3),
    "always-pass": dict(kind="adaptive", d0=math.inf),
    "capped": dict(kind="adaptive", d0=3, fanout_cap=2),
    "paad-g1": dict(kind="paad", g=1),
    "paad-g2": dict(kind="paad", g=2),
    "tree-protocol": dict(kind="tree-protocol"),
}
CELLS = {f"{net}/{proto}": (NETWORKS[net], PROTOCOLS[proto]) for net in NETWORKS for proto in PROTOCOLS}
CELLS["grid/grid-adaptive"] = (dict(network="grid"), dict(kind="grid-adaptive"))
SWEEPS = {proto: CELLS[f"explicit/{proto}"] for proto in PROTOCOLS}
SWEEPS["grid-adaptive"] = CELLS["grid/grid-adaptive"]

TRIALS_PER_T = 6
LINE = ExperimentConfig(network="line", protocol=ProtocolParams(kind="polya-line", horizon=6), adversary="line-ml",
                        line_n=41, seed=11, trials=200)


def _config(cell, T, adversary="snapshot", **kw):
    net_fields, proto_fields = cell
    return ExperimentConfig(protocol=ProtocolParams(horizon=T, **proto_fields), adversary=adversary,
                            seed=11, **net_fields, **kw)


def cell_digest(name: str) -> str:
    """The snapshot adversary reads the infected set in infection order and
    the centers, at T = 0..9; irregular-ml, off the grid, reads the
    infection tree too, at the even T it scores."""
    buf = io.StringIO()
    runs = [("snapshot", range(10))]
    if not name.startswith("grid/"):
        runs.append(("irregular-ml", range(2, 10, 2)))
    for adversary, horizons in runs:
        for T in horizons:
            cfg = _config(CELLS[name], T, adversary, trials=TRIALS_PER_T, estimator_d0=3)
            write_trial_csv([run_trial(cfg, i) for i in range(TRIALS_PER_T)], buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


# name -> (cell, adversary, horizons, extra ExperimentConfig fields): the estimators that read
# degrees or neighbours of the network, on the spreads they read
ESTIMATOR_CELLS = {
    **{f"{net}/{proto}/map-leaf": (CELLS[f"{net}/{proto}"], "map-leaf", range(0, 10, 2), {})
       for net in NETWORKS for proto in ("always-pass", "paad-g1", "tree-protocol")},
    **{f"{net}/{proto}/paad-map": (CELLS[f"{net}/{proto}"], "paad-map", range(10), {})
       for net in NETWORKS for proto in ("paad-g1", "paad-g2")},
    "explicit/tree-protocol/spy-irregular": (CELLS["explicit/tree-protocol"], "spy-irregular", range(10),
                                             {"p": 0.2}),
    **{f"regular-tree/{proto}/spy-snapshot": (CELLS[f"regular-tree/{proto}"], "spy-snapshot", range(0, 10, 2),
                                              {"p": 0.2})
       for proto in ("exact", "always-pass")},
}
ESTIMATOR_TRIALS_PER_T = 12


def estimator_digest(name: str, cells=ESTIMATOR_CELLS) -> str:
    cell, adversary, horizons, extra = cells[name]
    buf = io.StringIO()
    for T in horizons:
        cfg = _config(cell, T, adversary, trials=ESTIMATOR_TRIALS_PER_T, **extra)
        write_trial_csv([run_trial(cfg, i) for i in range(ESTIMATOR_TRIALS_PER_T)], buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


# name -> ProtocolParams fields: the ball spreads, which first-spy reads
BALL_PROTOCOLS = {
    "diffusion": dict(kind="diffusion", q=0.3),
    "flooding": dict(kind="diffusion", q=1.0),
}
# name -> (cell, adversary, horizons, extra ExperimentConfig fields), as ESTIMATOR_CELLS
BALL_CELLS = {f"{net}/{proto}/first-spy": ((NETWORKS[net], BALL_PROTOCOLS[proto]), "first-spy", range(10), {"p": 0.2})
              for net in NETWORKS for proto in BALL_PROTOCOLS}


# name -> (config, T values): irregular-ml sweeps, whose trials run to the largest T and score the others on
# their snapshots at each; the first two are the graph-sweep-pool bench's sweep on a smaller graph
HAND_OVER_SWEEPS = {
    f"explicit/always-pass/irregular-ml/workers={w}": (
        _config(CELLS["explicit/always-pass"], 8, "irregular-ml", trials=25, workers=w), (4, 6, 8))
    for w in (1, 2)}
HAND_OVER_SWEEPS["galton-watson/exact/irregular-ml"] = (
    _config(CELLS["galton-watson/exact"], 8, "irregular-ml", trials=25), (2, 4, 6, 8))
HAND_OVER_SWEEPS.update({
    f"explicit/{proto}/first-spy/workers={w}": (
        _config((NETWORKS["explicit"], BALL_PROTOCOLS[proto]), 8, "first-spy", trials=25, p=0.2, workers=w), (2, 5, 8))
    for proto in BALL_PROTOCOLS for w in (1, 2)})


def line_digest() -> str:
    buf = io.StringIO()
    write_trial_csv([run_trial(LINE, i) for i in range(LINE.trials)], buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def line_spread_digest() -> str:
    """spread_polya_line itself, with and without a horizon: the infection
    items in order, the hand-offs, T, what the end spies see and the
    stream's next draw."""
    h = hashlib.sha256()
    for n in (1, 2, 9, 41):
        for horizon in (None, *range(10)):
            for seed in range(25):
                rng = np.random.default_rng(seed)
                snap, tr = spread_polya_line(n, int(rng.integers(1, n + 1)), rng, horizon)
                h.update(repr((list(snap.time.items()), list(snap.parent.items()), snap.vs_events, snap.T,
                               tr.n, tr.q, tr.direction, tr.first_spy, tr.t_first, rng.random())).encode())
    return h.hexdigest()


def sweep_digest(name: str, tmp_dir, cfg=None, values=(2, 5, 8)) -> str:
    out = tmp_dir / f"{name}.csv"
    cfg = cfg or _config(SWEEPS[name], 8, trials=25)
    summary = sweep(replace(cfg, trial_output=str(out)), "T", list(values))
    text = summary_csv_text(summary)
    for T in values:
        text += (tmp_dir / f"{name}.T={T}.csv").read_text()
    return hashlib.sha256(text.encode()).hexdigest()


# the three tree-protocol cells were re-pinned when a tree-protocol snapshot at T=1 took the first holder as its
# center, as every token walk does, where it had taken the source; only their T=1 rows moved
CELL_DIGESTS = {
    "explicit/always-pass": "ffd9fd19f394bf38dd65edef6b35efdbe3bcd5f52a7617f9213953e33f028d1e",
    "explicit/capped": "475e80af1aea004c6ffb4f4379afde0a7b29c5ed115b6b747941a6374a37ec43",
    "explicit/exact": "c350a64612577501ed6e67f85105367cd07cf52c40b355441cce9a271c14dd1f",
    "explicit/paad-g1": "ad3f259fcc43acf552d94cf5d675c8c211da1cedacdeea3f6bc3da01f8ce9164",
    "explicit/paad-g2": "bc9b2bb18c14d22392c2266e9ca2742b454b0ccacdeafb87e055be32f89a3052",
    "explicit/tree-protocol": "f1466b52dd5dcb1c46e1a7d979c63f766b825226e0c339e7c32a5b756b28dc83",
    "galton-watson/always-pass": "6e502061a7d79415ab4f716242925880002bc39cd5d0aa4820ef6d3c64e1585a",
    "galton-watson/capped": "58991848be9faede7f28c2c00a65c36d09a4f5ea15b3a4adb649e44de6c8dbd2",
    "galton-watson/exact": "bccd8948ee8705a8db8005aa36c8b9d7b721211c75838cee62424d7f0a593d5a",
    "galton-watson/paad-g1": "feb6ded32bb487f21fc670ce74ed529b0f4ea71644de2d871636e29379ade49f",
    "galton-watson/paad-g2": "36710ddb062ac2e913f1391daa968bfbf9ccb52c1b97e572e92e456df0433960",
    "galton-watson/tree-protocol": "85b7e758bdc3321895e69bd2627d37a314203d14d97d5c115f9e10cb7dcf502c",
    "grid/grid-adaptive": "a74513e2a787edb58c75638d8f8ab5b89bb0e2688f4b945a033df5c37a9f017b",
    "regular-tree/always-pass": "d4c5d2f5bebe081acf36480cfa3697219560ec84ff025d11a8db2564d0473e53",
    "regular-tree/capped": "8620be83d8b833ff444b5feb38bb2efaf89c0cc4d7847a79a579ee6a70a532d3",
    "regular-tree/exact": "a2041c6d0973959bf25285f479cebd947e60e8e6a55cb1d9af8193b02e8502de",
    "regular-tree/paad-g1": "c2a9cf6d2539dae265e9a0b9ba263a592f62ad9c9442cd2d67970198e861e47d",
    "regular-tree/paad-g2": "c2a9cf6d2539dae265e9a0b9ba263a592f62ad9c9442cd2d67970198e861e47d",
    "regular-tree/tree-protocol": "b8a956b8bb5821ba10a7e9a40fa616479944c82226b3bc64f475d68c7da4bf8a",
}

SWEEP_DIGESTS = {
    "always-pass": "9d0bf760c82bf7161c1fd01a733442b50cbbd20eedd6c21560f9a6da9ff38b25",
    "capped": "976b8655d6eb094b004f0c8f602b074f1912aaf69c071bbe4860d0d8c2e33cd9",
    "exact": "fc1b4badddfab32257a5ef50a149ce60fc8220af104328f37200298b0f4a1b05",
    "grid-adaptive": "e58841a2582dfab769b89353efd0e65bd545823bdd3119231558270967b59c84",
    "paad-g1": "8773af117c22fb0f354f2795a62f2ee8deac03c22f9f121c6531c1a25638c5c8",
    "paad-g2": "79de40a97726cb58bce074c22c2d18e67a007d44428380076fc6f05df30aca79",
    "tree-protocol": "7b61b98c75392aa82a16574ae562aab406a62c6e0c2be5ca4c26628706390b02",
}

# taken from the code in which snapshots still carried their degree maps and paad's region adjacency,
# but for spy-snapshot's, taken from the code that oriented the infection tree by a search over its
# undirected adjacency
ESTIMATOR_DIGESTS = {
    "explicit/always-pass/map-leaf": "76e441922ad363846c61f408f813ef8cfc17e941966b40943f167a5bd409e237",
    "explicit/paad-g1/map-leaf": "5da9bff3f315aed359d1f4be7502a9ef0c187ad73b6e8f02ff1e4945e6e965ed",
    "explicit/paad-g1/paad-map": "b3971e1b0b4300808e30929351c5f77482edd86430a9c6e5df0d9af55c810971",
    "explicit/paad-g2/paad-map": "8103950289ff21b01bb82493b854459d3d5294198c7c8face5e70a6003e9206f",
    "explicit/tree-protocol/map-leaf": "cad29d22f8a61502e45b16e580c53db94d0dbd4693638418b4deab889bff6662",
    "explicit/tree-protocol/spy-irregular": "c25950abaffa472357788bd04954354a494c16c14360a2caefcda0ba9356fc37",
    "galton-watson/always-pass/map-leaf": "6f28102c3c7eff451a3507438b6d33e22ec13d22de706ac7dd150565147fd10c",
    "galton-watson/paad-g1/map-leaf": "4f8348ef62a4b3a74c9f97887496d0f888d8573d266b8331f84101c9f764e95b",
    "galton-watson/paad-g1/paad-map": "f12d977cde751ee10eefe3858384f5b5d9c71525826177496a6c4cd7b2f19ae4",
    "galton-watson/paad-g2/paad-map": "5e4b8cc68f4632ac88ed9c103e3353d8301d9815c302c566f8fb6c88c70ddbf0",
    "galton-watson/tree-protocol/map-leaf": "a5281fc2bf3eecf0a78864cd2a8dc05b616b3fecf4e9c20dc0d3cbcec5b91901",
    "regular-tree/always-pass/map-leaf": "51fcd5748d1e208afcdbae015eca8888190a54bcbbe3a7fe79df5937f7b4d321",
    "regular-tree/paad-g1/map-leaf": "95555cb3cd27bd9f1845528057c2e674091d09f144ae9db335eb4dbb47866af5",
    "regular-tree/paad-g1/paad-map": "45869a2fe015139d16e2acc5fc9900b86e3c5e51df83e2d62a2b4fae5a5d08fc",
    "regular-tree/paad-g2/paad-map": "45869a2fe015139d16e2acc5fc9900b86e3c5e51df83e2d62a2b4fae5a5d08fc",
    "regular-tree/tree-protocol/map-leaf": "e3582834a4d0e817318405d9e3f3b541df541d403d302b7f19050bf8541bdb4b",
    "regular-tree/always-pass/spy-snapshot": "b19af0d68bf095d6a0e27c497a0531f689011e86f23485c973d7fead151f2e05",
    "regular-tree/exact/spy-snapshot": "28560f0e4c5c372a2d317b72a8b18dfb6f168fcae0ccda0d00ec13910d18a4ff",
}

# taken from the code in which flooding was a spread of its own, the `deterministic` protocol kind, which
# diffusion at q=1 reproduces
BALL_DIGESTS = {
    "explicit/diffusion/first-spy": "466f7dafaea4fbeda03eee3830b0123ce9cfde182d0f41e552fd788b072847c4",
    "explicit/flooding/first-spy": "16175ae295a0283475c21acfc11a5e4bf1506f532e95d37283a629da055bcd72",
    "galton-watson/diffusion/first-spy": "ca39ba5fcbe8e656526432e71f07e67c4a47edfd8fd767a84e3de3d95ef78293",
    "galton-watson/flooding/first-spy": "5a56c6ddb532138cd3df23aee29e71abf0b0065fb659edfeee332d50c71df697",
    "regular-tree/diffusion/first-spy": "209d31fec48972675c98e1583a088b7b3f8785c91dd9460ced9415ebcb097ccc",
    "regular-tree/flooding/first-spy": "8e528605ae30dea6d531b2bd2ed81712f3e4c0df1d0ddce3617c2fd842690adc",
}

# taken from the code that oriented the infection tree by a search over its undirected adjacency, but for
# first-spy's, taken with BALL_DIGESTS; in flooding's, the summary's protocol column, which read
# `deterministic` there, reads `diffusion`
HAND_OVER_DIGESTS = {
    "explicit/always-pass/irregular-ml/workers=1": "8b015eb7a35237c06c1045c90bb44da31ac64ffaaeea79332eeb6591db204ff0",
    "explicit/always-pass/irregular-ml/workers=2": "8b015eb7a35237c06c1045c90bb44da31ac64ffaaeea79332eeb6591db204ff0",
    "galton-watson/exact/irregular-ml": "b9b4c08d76bddef0ba38842c0564b6fad44ffbc90c1f4ef84023e35e0dc556c8",
    "explicit/diffusion/first-spy/workers=1": "920e746c616b5058c96748ef6a19d3618c6490e42568017bc1e5b551315401cf",
    "explicit/diffusion/first-spy/workers=2": "920e746c616b5058c96748ef6a19d3618c6490e42568017bc1e5b551315401cf",
    "explicit/flooding/first-spy/workers=1": "cfc187bc1de1c616ab3fca64f9036ed10f727e797932ec6daf2b11e34b7dd513",
    "explicit/flooding/first-spy/workers=2": "cfc187bc1de1c616ab3fca64f9036ed10f727e797932ec6daf2b11e34b7dd513",
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_trial_records_keep_their_bytes(name):
    assert cell_digest(name) == CELL_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_over_T_keeps_its_bytes(name, tmp_path):
    assert sweep_digest(name, tmp_path) == SWEEP_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ESTIMATOR_CELLS))
def test_estimator_records_keep_their_bytes(name):
    assert estimator_digest(name) == ESTIMATOR_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(BALL_CELLS))
def test_ball_spread_records_keep_their_bytes(name):
    assert estimator_digest(name, BALL_CELLS) == BALL_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(HAND_OVER_SWEEPS))
def test_hand_over_sweep_keeps_its_bytes(name, tmp_path):
    cfg, values = HAND_OVER_SWEEPS[name]
    assert sweep_digest("hand-over", tmp_path, cfg, values) == HAND_OVER_DIGESTS[name]


def test_line_spread_keeps_its_bytes():
    # taken from the code in which the line ran its own epoch loop beside the token walk
    assert line_spread_digest() == "943ed47789bbcec02192a139a9b410379b1296f9c3f7550228d1f8d2903ab2ad"


def test_line_trial_records_keep_their_bytes():
    assert line_digest() == "9575c49ea34dcb55b396ce38895fa42d67ac336bf656917681412a80d8bde45e"


@pytest.mark.parametrize("workers", [1, 2])
def test_line_sweep_over_T_keeps_its_bytes(workers, tmp_path):
    # line-ml ignores the horizon, so every T gets the same records, on any pool
    digest = sweep_digest("line", tmp_path, replace(LINE, workers=workers))
    assert digest == "63ebb274e797f5c7a758820bdc6c1590e0d43a6219ec1797415cfbd594ac46e7"


def test_multi_snapshot_sampler_keeps_its_counts():
    assert multi_snapshot_detection_mc(3, 6, 300, seed=5) == (68, 300, 0)
