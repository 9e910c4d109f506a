"""Golden digests of glued output.

`paste`, `cell_to` and `substitute` name every element of the shapes they
build (``left/x``, ``right/y``), order its covers and record origin maps and
a certificate.  These sha256 digests pin all of that on the shipped
fixtures, a fixed-seed corpus of random molecules, and the substitution
inside power's collapse, so a change to the gluing step cannot rename,
reorder or re-certify anything unnoticed.  Gray products of the test
factors, the Mon∧Mon smash presentation, the interchanger calculus's
composites and the tensors of the shipped theories with their symmetric
quotients are pinned the same way.
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
    prop_quotient,
    recognize,
    tensor_pros,
    u_cell,
)
from pastekit.fixtures import fixture_files, frob, power
from pastekit.serialize import (
    serialize_complex,
    serialize_diag_presentation,
    serialize_expr,
    serialize_presentation,
)


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


THEORIES = ("N", "Mon", "coMon", "BialgExpected")

TENSOR_DIGESTS = {
    "tensor/N/N": "ec9068ae92008cdde8eedbf0dc448f2154683c3bcd3bbeadc0c720897b0855b3",
    "quotient/N/N": "b3e9fda8e8bc41e2efca05e417e4563a711e30d105c5f1c49abf691bf5cb7085",
    "tensor/N/Mon": "2a767b96b6fa1d8693d09aede99ee3ad97ecd63c8ebc99b2adccf77b98574b32",
    "quotient/N/Mon": "21072ff97da696ce8c330f6c493c262fd63f5e71c005f04e9e98000cfa107e4d",
    "tensor/N/coMon": "f0b2aac6275a5e6d072652cc1090ee7323c63f7951a39f0ba898db65f066f8aa",
    "quotient/N/coMon": "39586f9876ad1e03fe9c8dfea61760b23ee0f8f7b22dc33462bc9cbc1ce38174",
    "tensor/N/BialgExpected": "4be7ea0294a96b41658408a53df8fa6e95698c4481715c1e570021d68d9ab76c",
    "quotient/N/BialgExpected": "1f0c6f012543718dd4771c1aa3548e2c28cd0a1d2fd2026a5d99129f3063221a",
    "tensor/Mon/N": "408fd25b04923f353ef0d5314e5bd7dcdf5b3537615be43f20b5fb3802e13094",
    "quotient/Mon/N": "9b4f22b35ef07bcf0ea3ae6a75b54613d383d6e53ba0e840c65845d484544deb",
    "tensor/Mon/Mon": "d254f4f3ade46f9482708d0e43055ca36a7cb484d15b9702310f75da5c4c05ce",
    "quotient/Mon/Mon": "6c7821781430e4a90ce808c34e613fc14f19796dc8faa20c1c7993cbb7c830a5",
    "tensor/Mon/coMon": "9818413ce39fc0860946464bc7d623594eaaa5f4c722b1747cd44ff39bcbcda3",
    "quotient/Mon/coMon": "b9cdcda010dd793a1900d3679a0ad1e46423dbc9bd5a2aef3f8aef7572d77293",
    "tensor/Mon/BialgExpected": "fa73d5fc1b82be3a8dc2ee6caf6462a2ba932b5ae5b3a0b6ab8994568288931c",
    "quotient/Mon/BialgExpected": "2645af26084005ef32681f8de38d3b9404768dc4a314387a6a8d676d0c3e7640",
    "tensor/coMon/N": "b3742807b9b771df3d38677f1c2f498b3f8eb6274b94939558a21ff14aa71bf7",
    "quotient/coMon/N": "4660e957db2204b01213c69e2e8e10347c36aad78fee1d05e16f89f7d806dbdb",
    "tensor/coMon/Mon": "492bdd23ce78ad13db12dec51173eebb65da2beca56fa7ff97aa8123657a705b",
    "quotient/coMon/Mon": "62d1fb5160cceed266f7b5d03c787a62fc4250301bbdf1e00bc40149bf9e1d06",
    "tensor/coMon/coMon": "3d8e8f76f580b5229a62086a893ca16bb1326b906cdc8e714e6c598f00561c5f",
    "quotient/coMon/coMon": "7bc838f930fb75078cfbbdb8cd10c3393105bde547540e0000080db63730af8d",
    "tensor/coMon/BialgExpected": "d9a3b8277256692d1b6ad756d7060b9100067d557ca0f9ce394bc6e4a3fad205",
    "quotient/coMon/BialgExpected": "16824826f392c1091fb816a9a5f95b337919ed69631c7b7f86178c8676c30d3a",
    "tensor/BialgExpected/N": "c73fa578f101bcaac96ef81d77f7e2e747c45b32bc1fe88080744be876041f95",
    "quotient/BialgExpected/N": "770de1bab726caa507f07356dd20cc8d7e929fd1118cdf6f3f0d81e4da34f0a2",
    "tensor/BialgExpected/Mon": "292e99cf767893cf365ed24cea178e05b18c1ca8fa7ba25196a77ae6b3f8137d",
    "quotient/BialgExpected/Mon": "25d576dc8162116fb7339ac79176fec2435a3bdf9503e6c0f362d1094f8c8564",
    "tensor/BialgExpected/coMon": "55237b562891ea112ad4eaa618dc1c37d75f351c98b55c4de90cdc698968a91c",
    "quotient/BialgExpected/coMon": "21c50154b426d2bb1127c7eb8c3ffe95d6abcfb55dfbb4a3f0f41e12d12733fc",
    "tensor/BialgExpected/BialgExpected": "2fb08f3aaaa9105fae88ab89ee1e80ce488c0ec4b6fa1d9596e83363f29e09ed",
    "quotient/BialgExpected/BialgExpected": "8d4f6d66418152fe42aba55d8d15e6ccbee0926131041d1ee32002d4d41c9eaf",
}


def test_tensor_and_quotient_digests():
    got = {}
    for t in THEORIES:
        for s in THEORIES:
            tensor = tensor_pros(builtin(t), builtin(s))
            got[f"tensor/{t}/{s}"] = tensor
            got[f"quotient/{t}/{s}"] = prop_quotient(tensor)
    assert {k: hashlib.sha256(serialize_presentation(p)).hexdigest() for k, p in got.items()} == TENSOR_DIGESTS
