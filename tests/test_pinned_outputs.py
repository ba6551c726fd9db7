"""Digests of built products and translational hulls, pinned so that a
change to how elements are coded cannot move an element, an index, a name
or a byte of output.

Each digest covers the values in build order; regenerate one only for a
change that means to alter the output it pins."""

import hashlib
import json

import numpy as np

from invsem import billhardt, cli, congruences, core, fixtures, trhull

# (kind, K, T): the wreath rungs, with the direct products and eta maps the
# benchmark builds for them
RUNGS = (
    ("hwr", "z3", "chain4"),
    ("lwr", "z3", "chain4"),
    ("hwr-eta", "b2xchain2", "chain2"),
    ("hwr-eta", "z2xchain3", "chain3"),
    ("hwr", "chain2", "i2"),
    ("lwr", "chain2", "i2"),
    ("hwr", "chain4", "chain4"),
    ("lwr", "chain4", "chain4"),
    ("hwr", "b2", "chain4"),
)

PRODUCT_FILES = {
    "hwr(z3,chain4)": "7d059b1861a0b0cdbccc41948a97f688ada9276be3d32fb12c0a603943ddef70",
    "lwr(z3,chain4)": "1b15e661544f03e3ede9bbdb2a81d682a8cca81b32ad4dedc1ae4fb4d3770248",
    "hwr-eta(b2xchain2,chain2)": "2cca8617149b3f5b2fc44ddaa9faa0a9a43524d549c20424c45364bf82e88fcb",
    "hwr-eta(z2xchain3,chain3)": "b35e1be5e190c1fc9d2782c28f89b278ec4d1aba1c2ad65011182bbefef12dec",
    "hwr(chain2,i2)": "e5bd1cccdfa91af3cbba115d4632508e401b7a6095fa0805e9e290ba871155e1",
    "lwr(chain2,i2)": "22e79dc8e2498092b27c28fb699ffa11974991e5c1619a2475b4a736653cdf84",
    "hwr(chain4,chain4)": "e0e42830ff2b72a4044241d6056228755ba69821158a73c0e4bbf4cc4fab7f52",
    "lwr(chain4,chain4)": "007b8ec473076654ec7ebc41857a6e9ec7e716e5cee4a5cb9fa0ef988f7b4e2f",
    "hwr(b2,chain4)": "eff55e2f06c5c9346c5fe13e76dbd40af3051371ee392a241fe796afb4d8bb7b",
}

FIXTURE_FIELDS = {
    "lsd.elements": "c6be6a139034f13414a0e4c1e7d5e72319de73bd5a968d6ba86efe1de194f506",
    "lsd.table": "f289cfb3f0c4189b5daea0f3ff04786bd5da384f4963d3f23ad01dfe46206590",
    "lsd.names": "5c3df38a720eb5f299b5cffd24e3ac451ca18e62e15f4cf73a33b906a773c618",
    "lsd.pi2": "44a74ce38baf0825f6eb43a28dfda870509e385e2895e9bf30d6ab8e64df4664",
    "rsd.elements": "98cee5eedf45a8cacbdb4c2806f3d53082c1ae480cb4611fc2239c6590a7628d",
    "rsd.table": "a92dc9853f640042f63fac9c0bd0742e91c5980ce7fbda28623c0dec2e68c212",
    "rsd.names": "76973e5acee0a62bae381ed8fc37b08d01c65b48228f4ad05a21f39333720510",
    "rsd.pi2": "e6c7313b0842e94d269396f6bd2b0e86006d7fce23bab32e3e8075a6421a0ef0",
}


def _sha(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _fields(P):
    return {"elements": np.asarray(P.elements, dtype=np.int64).tobytes(),
            "table": np.asarray(P.sg.table, dtype=np.int64).tobytes(),
            "names": json.dumps(P.sg.names).encode(),
            "pi2": np.asarray(P.pi2.map, dtype=np.int64).tobytes()}


def fixture_digests():
    out = {}
    for family, fx in (("lsd", fixtures.lsd_fixtures()), ("rsd", fixtures.rsd_fixtures())):
        fields = [(label.encode(), _fields(P)) for label, P in fx]
        for key in ("elements", "table", "names", "pi2"):
            out[f"{family}.{key}"] = _sha(c for label, f in fields for c in (label, f[key]))
    return out


def product_file_digests(tmp_path):
    cat = dict(fixtures.catalog())
    cat["b2xchain2"] = core.direct_product(cat["b2"], cat["chain2"])
    cat["z2xchain3"] = core.direct_product(cat["z2"], cat["chain3"])

    def write(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    out = {}
    for kind, k, t in RUNGS:
        argv = ["product", kind, "--k", write(k, core.as_dict(cat[k])),
                "--t", write(t, core.as_dict(cat[t]))]
        if kind == "hwr-eta":
            # (a, b) has index a * |T| + b in the direct product; eta sends it to b
            eta = np.arange(cat[k].order) % cat[t].order
            argv += ["--eta", write(f"eta-{k}", {"map": eta.tolist()})]
        path = tmp_path / f"{kind}({k},{t}).json"
        rc, _ = cli.run(argv + ["-o", str(path)])
        assert rc == 0, (kind, k, t)
        out[f"{kind}({k},{t})"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_product_files_are_pinned(tmp_path):
    assert product_file_digests(tmp_path) == PRODUCT_FILES


def test_fixture_products_are_pinned():
    assert fixture_digests() == FIXTURE_FIELDS


HULLS = {
    "catalog": "c9e170b14c4bf991ef2a9210ee1f98dc607cdced6b7f096ed2004464ea27a17d",
    "forward": "73d679552ecef9ddf5ce8a858a48246eac768875cc3bddea376583e2c2169860",
    "extensions": "20da1925a045d77331a91193e0616e1d0c76a831221c29a2023df810a98e2f90",
    "cli": "abc2edeee3ff92162bc28a637a41779057152fc5cfe51f813e8c32ecad432d91",
}


def _ints(a):
    return np.asarray(a, dtype=np.int64).tobytes()


def _hull_fields(h):
    return (_ints(h.left), _ints(h.right), _ints(h.sg.table),
            json.dumps(list(h.sg.names)).encode(), _ints(h.inner_of), _ints([h.identity]))


def hull_digests():
    """Every catalog hull, the forward hull and forward transversal of every
    rsd fixture, and the extension hull of every congruence up to order 6."""
    cat = fixtures.catalog()
    names = list(cat)
    out = {"catalog": _sha(c for n in names
                           for c in (n.encode(), *_hull_fields(trhull.enumerate_hull(cat[n]))))}
    chunks = []
    for label, P in fixtures.rsd_fixtures():
        tr = billhardt.theorem310_forward(P)
        chunks += [label.encode(), *_hull_fields(tr.he.hull), _ints(tr.he.members), _ints(tr.xi)]
    out["forward"] = _sha(chunks)
    chunks = []
    for n in names:
        S = cat[n]
        if S.order > 6:
            continue
        for k, theta in enumerate(congruences.enumerate_congruences(S)):
            he = trhull.hull_of_extension(S, theta)
            chunks += [f"{n}#{k}".encode(), _ints(he.members), _ints(he.down),
                       _ints(he.omega.class_of), _ints(he.pi_member)]
    out["extensions"] = _sha(chunks)
    return out


# (argv after the instance files are written); the instance and congruence
# files are named by the first two words after the subcommand
CLI_RUNS = (
    ("trhull", "b2"),
    ("trhull", "i2"),
    ("trhull", "b2", "--congruence", "univ"),
    ("trhull", "b2", "--congruence", "diag"),
    ("trhull", "i2", "--congruence", "rees"),
    ("trhull", "fork", "--congruence", "fork1"),
    ("billhardt", "find", "b2", "univ"),
    ("billhardt", "find", "b2", "univ", "--split"),
    ("billhardt", "find", "i2", "rees"),
    ("billhardt", "find", "fork", "fork1"),
    ("billhardt", "embed", "b2", "diag", "--split"),
    ("billhardt", "embed", "fork", "fork1"),
    ("billhardt", "embed", "chain3", "chain3univ", "--split"),
)


def cli_digest(tmp_path, capsys):
    """The --json reports of trhull and billhardt, without the timing and
    the file paths, which differ from run to run."""
    cat = fixtures.catalog()
    files = {n: core.as_dict(cat[n]) for n in ("b2", "i2", "fork", "chain3")}
    files |= {"univ": {"class_of": [0] * 5}, "diag": {"class_of": list(range(5))},
              "rees": {"class_of": [0, 0, 0, 0, 1, 0, 2]}, "fork1": {"class_of": [0, 1, 0]},
              "chain3univ": {"class_of": [0, 0, 0]}}
    paths = {}
    for name, doc in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    reports = []
    for argv in CLI_RUNS:
        rc, _ = cli.run(["--json"] + [str(paths.get(a, a)) for a in argv])
        doc = json.loads(capsys.readouterr().out)
        del doc["elapsed_s"], doc["command"]
        doc["digests"] = sorted(doc["digests"].values())
        reports.append([list(argv), rc, doc])
    return _sha([json.dumps(reports, sort_keys=True).encode()])


def test_hulls_are_pinned():
    got = hull_digests()
    assert {k: got[k] for k in ("catalog", "forward", "extensions")} == {
        k: HULLS[k] for k in ("catalog", "forward", "extensions")}


def test_hull_reports_are_pinned(tmp_path, capsys):
    assert cli_digest(tmp_path, capsys) == HULLS["cli"]
