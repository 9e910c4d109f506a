"""Golden digests of glued output.

`paste`, `cell_to` and `substitute` name every element of the shapes they
build (``left/x``, ``right/y``), order its covers and record origin maps and
a certificate.  These sha256 digests pin all of that on the shipped
fixtures, a fixed-seed corpus of random molecules, and the substitution
inside power's collapse, so a change to the gluing step cannot rename,
reorder or re-certify anything unnoticed.  Gray products of the test
factors, the Mon∧Mon smash presentation and the interchanger calculus's
composites are pinned the same way.
"""
import hashlib
import json
import random

from conftest import random_molecule
from pastekit import (
    KOrder,
    Molecule,
    builtin,
    certificate_json,
    check_sim_substitution,
    expr_normalize,
    four_cell_equation,
    frame_decomposition,
    globe,
    globe_molecule,
    gray_product,
    interpret,
    interpret_atom_in_context,
    interval_chain,
    k_order,
    presentation_of_smash,
    recognize,
    u_cell,
)
from pastekit.fixtures import fixture_files, frob, power
from pastekit.serialize import serialize_complex, serialize_diag_presentation, serialize_expr


def digest(u: Molecule) -> str:
    h = hashlib.sha256(serialize_complex(u.complex))
    # serialization sorts covers; the order the constructors gave them is pinned here
    h.update(json.dumps([u.complex.covers(x) for x in u.complex.elements()]).encode())
    h.update(json.dumps(certificate_json(u), sort_keys=True).encode())
    for origin in (u.left_map, u.right_map):
        h.update(json.dumps(sorted(origin.items()) if origin is not None else None).encode())
    return h.hexdigest()


FIXTURE_DIGESTS = {
    "o0": "f225801a46ec795bf50d0c8d5888482d16444b6ca57794df527c730788b8f27c",
    "o1": "e4f937868c1277090a1ec6235dd2b29c49f11efceca8f7e13153fb2e533f449e",
    "o2": "7836992ab091caf32356ae2ba25df50d07b5bc52db07fb8603f7bb774311e4a4",
    "o3": "9d75c5923e8cac06088531ded50867efa84e4c3fce68d28529d9fac166cebe99",
    "o4": "804bb438e603cd6550a3df7040d44e471e2918fe8251f1b5937f06ff8e1504b5",
    "i1": "e4f937868c1277090a1ec6235dd2b29c49f11efceca8f7e13153fb2e533f449e",
    "i2": "5099cdba2cc6f331d79d7926d4338a080aad4de4c8d3213f9afec4b286accbda",
    "i3": "d1d31f90d41b72c3f411e2580caa4fa7e352dc34ba6bc238408e5c0ae82672a6",
    "i4": "fc30090020e65446400098b252341af885d4e5d91955fc3a2a357a622c1a478d",
    "i5": "8e92f3dab6401aff06f91690aa5473f474ce618c6e1350c081a7f5979b321889",
    "u21": "04988632d7b3bb62b97bfea81c7200d410ff073ed2d378cf9a2626e30566f95f",
    "u12": "ba6b49220f017abb5545886a3b4e662b4b69d17f575238576aaec5a07f409dd0",
    "u22": "b3af78c978ab6f78c396058b05769bf859d85dacf5c8d3faff0dd2460d3ca5bf",
    "u32": "d0f8b04bd277db1ad8de2e3a2db72f29537e8d643f1b80d5d2a9c7e35f0747be",
    "frob": "748c3d7786d0d2fe5d42ad40b2fe47a78327c53070b8166d70ee8a14bf606c05",
    "power": "04aba676cc1c0b74d375ed9f42efa9d007fea8275fabbc5545cb35dfcaa826bc",
}


def test_fixture_molecules_digests():
    got = {f"o{n}": globe_molecule(n) for n in range(5)}
    got.update({f"i{n}": interval_chain(n) for n in range(1, 6)})
    got.update({f"u{n}{m}": u_cell(n, m) for n, m in ((2, 1), (1, 2), (2, 2), (3, 2))})
    got["frob"] = frob().molecule
    got["power"] = power().molecule
    assert {name: digest(u) for name, u in got.items()} == FIXTURE_DIGESTS


def test_fixture_files_digest():
    h = hashlib.sha256()
    for name, blob in sorted(fixture_files().items()):
        h.update(name.encode())
        h.update(blob)
    assert h.hexdigest() == "51a8c737922918b1412dae2539772e3ec835c365e7420e02ac4f3938bec7a5ab"


def test_random_molecules_digest():
    rng = random.Random(0x601D)
    h = hashlib.sha256()
    for _ in range(50):
        h.update(digest(random_molecule(rng)).encode())
    assert h.hexdigest() == "de07b866fcd043354833c27dae90253cc809c501edf51d50a67d76dac917c633"


def test_power_collapse_digest():
    P = power()
    u = P.molecule
    cx = u.complex
    report = check_sim_substitution(
        u, cx.closure([P["lam"], P["tau"]]), cx.closure([P["rho"], P["beta"]])
    )
    assert report.collapsed is not None
    assert digest(report.collapsed) == "8077458447f76135532d5b17d9d6607a04423adbf19e7a1e927c2f408ffa4470"


GRAY_DIGESTS = {
    ("O1", "O1"): "44bf04e881c254d9cc5854d4fd8ecf1fb88fc75c39485a64fdc101a9b31deacd",
    ("O1", "O2"): "b8191db606c5a6cfc9d9cc3f74b76cbcc7e2a0541a05015d0e7fff763174a1c4",
    ("O1", "U21"): "b421b180922c86858b6b74fc7fcfaf20c851afcd3ec2b768b621bc3fb28f673c",
    ("O2", "O1"): "3ca5c89afa550b6a37e8a1948129cfeba218d1f48b92a7e9189dbe28cc151539",
    ("O2", "O2"): "483511b07e1b8cd57da49716c8ba943a3fccf0c6a7a6a58eb1c1c0070665b117",
    ("O2", "U21"): "a66d03c910aba8af20736cc0bce6a0dc4d587e8d654db9399cfd967ab1c039c3",
    ("U21", "O1"): "12190455da73b63b2bd689aeced472d1b2e2be59dc8b3cff68588d33cfbcc459",
    ("U21", "O2"): "e946be3a4435036c845a6d6fb5af00c1ac14a5a783703e546efc307ed7e17e08",
    ("U21", "U21"): "9fe179169f1bc6a29fe0be39207ef35cfe6fc75a011513b6ce53020859e70e38",
}


def test_gray_product_digests():
    factors = {"O1": globe(1), "O2": globe(2), "U21": u_cell(2, 1).as_complex("U21")}
    got = {
        (p, q): hashlib.sha256(serialize_complex(gray_product(factors[p], factors[q]))).hexdigest()
        for p in factors
        for q in factors
    }
    assert got == GRAY_DIGESTS


def test_mon_smash_presentation_digest():
    mon = builtin("MonComplex")
    blob = serialize_diag_presentation(presentation_of_smash(mon, mon))
    assert hashlib.sha256(blob).hexdigest() == "2365b333d5ffeaedc0729dc3871618dfaadf514ee6df2eecbb5b6247a2cfc711"


GRAYCAT_DIGESTS = {
    "interpret/phi_psi": "f4aed4134dc830b5229c872b09948a0fb738df3111b043f91f705e83ddac3cae",
    "normalize/phi_psi": "f4aed4134dc830b5229c872b09948a0fb738df3111b043f91f705e83ddac3cae",
    "interpret/psi_phi": "0774cf643930e6e7a1854ef2b7c76e0bd37b406cf19dcabb227690cc6d110ad1",
    "normalize/psi_phi": "f4aed4134dc830b5229c872b09948a0fb738df3111b043f91f705e83ddac3cae",
    "atom/default": "476e20a114f8f89095150144d637399a52b9aca0e618b7697628eada3df8e9cd",
    "atom/x_y_phi": "476e20a114f8f89095150144d637399a52b9aca0e618b7697628eada3df8e9cd",
    "atom/x_phi_y": "b6cf626c0f256584a183e5cf6d2a07ffb483a6276859ea0fd7077dddd6ed9479",
    "four_cell/lhs": "5ace2e99c9e0e7f9ec45f1f0e87d761c79d72b081d9244b14dd8445ac920c7c6",
    "four_cell/rhs": "414ab8344de911594022bb020ace0131dcdfc114b65fe794185e0268bd48a199",
}


def test_graycat_expr_digests():
    F = frob()
    u = F.molecule
    got = {}
    for name, seq in (("phi_psi", (F["phi"], F["psi"])), ("psi_phi", (F["psi"], F["phi"]))):
        e = interpret(u, KOrder(2, seq))
        got[f"interpret/{name}"] = e
        got[f"normalize/{name}"] = expr_normalize(e)
    v1, _ = frame_decomposition(u, 2, k_order(u, 2))
    got["atom/default"] = interpret_atom_in_context(v1)
    got["atom/x_y_phi"] = interpret_atom_in_context(v1, (F["x"], F["y"], F["phi"]))
    got["atom/x_phi_y"] = interpret_atom_in_context(v1, (F["x"], F["phi"], F["y"]))
    square = gray_product(globe(2), globe(2))
    eq = four_cell_equation(recognize(square, square.whole()))
    got["four_cell/lhs"], got["four_cell/rhs"] = eq.lhs, eq.rhs
    assert {k: hashlib.sha256(serialize_expr(e)).hexdigest() for k, e in got.items()} == GRAYCAT_DIGESTS
