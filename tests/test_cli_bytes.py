"""End-to-end byte guard: `inversive gen ... | inversive render --in -` run as
two processes, with the sha256 of the packing stream and of the SVG pinned,
and the same for `lox` and for `solve ... | convert --to ... | verify`.

The first four gen/render digests were recorded from the CLI before exact
packings kept their rows as ints in the frame of scalars.scaled_rows, the
next four before the renderer formatted each circle size once, and the two
float spherical and hyperbolic cases and the float n = 3 stream before
float generate() keyed its rows by int ids and the float stream rows were
written and read by one format and one regex.  The lox,
solve, convert and verify digests were recorded before loxodromic() stopped
building a configuration per step and before each configuration kept its
Gram residual.  The float gen, render and lox digests were recorded when
float walks became the exact walks of their float seeds, each entry rounded
once, and each float stream and sequence is also checked against that
contract: the reference walk of the float seed's Fraction twin, rounded.
The float hyperbolic gen and render digests (the image is now that of the
exact seed) and the spherical and hyperbolic solve,
convert and verify digests were recorded when curved plane bends came to be
realized by reflecting a base configuration, after each new configuration
was checked against tests/oracles.reflected_base and passed verify.  The
float n = 3 stream was recorded when the float equal caps came to be
written in closed form, after checking that it has the same 271 rows and
bend multiset and that every row's pair product is within 1e-12 of 1.
Any change to the output bytes of these inputs shows up here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inversive
from inversive import apollonian, shell
from test_apollonian import _rounded_reference
from test_reference_kernels import _rounded_reference_loxodromic

# (gen arguments, render arguments, sha256 of the gen stdout, sha256 of the
# SVG)
CASES = (
    (["--geometry", "euclidean", "--seed=-1,2,2,3", "--max-bend", "1000"], [],
     "26db91cf151e8e92a79a0afc81ead25ba051d0457c49aef478aba8d68207929d",
     "a5a722a1b7f960dbcaf4a01249373fe22d762f7f1c61e3f0b5c1a03d2264fbeb"),
    (["--geometry", "euclidean", "--seed=-1,2,2,3", "--max-bend", "1000",
      "--mode", "float"], [],
     "60ba7231f93cae74c45c18afe1566fcb0c7aabbe3c6919dda7eaee2fec905fbd",
     "a5a722a1b7f960dbcaf4a01249373fe22d762f7f1c61e3f0b5c1a03d2264fbeb"),
    (["--geometry", "spherical", "--seed=0,1,1,2", "--max-bend", "80"], [],
     "fb8b0400fc174223cff52e66342198a8ec5186bace443b2b2eabc5baa0d6b1d5",
     "3403b71710bf7ab6af30c697b355f5f0a10fbda740a3bb87903c7448a8c56e3a"),
    (["--geometry", "hyperbolic", "--seed=-2,3,5,6", "--max-bend", "150"], [],
     "d722330519f9da335a8149cc4fcdd2a8ef8af56dc5a807f72477a4b1c9b16c41",
     "6ee25e8a5f5fe799e783990e5854213d1ad363eea9c1641ceb2fb492ef5f6a30"),
    (["--geometry", "spherical", "--seed=0,1,1,2", "--max-bend", "80"],
     ["--projection", "stereographic"],
     "fb8b0400fc174223cff52e66342198a8ec5186bace443b2b2eabc5baa0d6b1d5",
     "cd35b5d5865eed5729ffd782505fd5954cab0d9987c8df7db064bfce3d3ffe9f"),
    (["--geometry", "euclidean", "--seed=-1,2,2,3", "--max-bend", "1000"],
     ["--labels", "none", "--cutoff", "0.005"],
     "26db91cf151e8e92a79a0afc81ead25ba051d0457c49aef478aba8d68207929d",
     "66bd0f82ffd1e2713ab1746c38491fa02430c25c3de5089f7d76922f1941d42e"),
    (["--geometry", "euclidean", "--seed=0,0,1,1", "--max-bend", "10",
      "--max-configs", "200"], [],
     "3ab63ad93ac4b2163633a63fd6fc4d25364e95df223c167499e8b48e2c7c801d",
     "4b5e04fedeebfa537d9d3ebeca87d3a0b8722085810cedaee6e4a41c7d055020"),
    (["--geometry", "hyperbolic", "--seed=-2,3,5,6", "--max-bend", "150"],
     ["--width", "640", "--height", "480"],
     "d722330519f9da335a8149cc4fcdd2a8ef8af56dc5a807f72477a4b1c9b16c41",
     "14df65b5bcd45b13a3d3ebf7863fb70ffa44ca8ee1d04b4eb8ee561429881a86"),
    (["--geometry", "spherical", "--seed=0,1,1,2", "--max-bend", "80",
      "--mode", "float"], [],
     "1f61b63b8f64418e5f5c779987292c11b9535ccb71e34bcc8d534d8a21f49b0b",
     "3403b71710bf7ab6af30c697b355f5f0a10fbda740a3bb87903c7448a8c56e3a"),
    (["--geometry", "hyperbolic", "--seed=-2,3,5,6", "--max-bend", "150",
      "--mode", "float"], [],
     "d0992eba25623ebf8243aa12abcae70736f70c3ba8c05658ae16a986ac36fc35",
     "6ee25e8a5f5fe799e783990e5854213d1ad363eea9c1641ceb2fb492ef5f6a30"),
)


def _cli(args, stdin=None):
    src = str(Path(inversive.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "inversive", *args],
                          input=stdin, capture_output=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _rounded_stream(stream, bound):
    """The packing stream that the contract of float generate() gives for
    the seed in a float stream's header: the reference walk of its Fraction
    twin, each entry rounded once."""
    seed = shell.loads_packing(stream.decode()).seed
    return shell.dumps_packing(_rounded_reference(seed, bound)).encode()


@pytest.mark.parametrize("args, render_args, gen_digest, svg_digest", CASES,
                         ids=["euclidean-exact", "euclidean-float",
                              "spherical", "hyperbolic",
                              "spherical-stereographic",
                              "euclidean-unlabelled-cutoff", "capped-strip",
                              "hyperbolic-640x480", "spherical-float",
                              "hyperbolic-float"])
def test_gen_render_bytes_are_pinned(args, render_args, gen_digest,
                                     svg_digest):
    stream = _cli(["gen", *args])
    assert hashlib.sha256(stream).hexdigest() == gen_digest
    if "float" in args:
        bound = float(args[args.index("--max-bend") + 1])
        assert stream == _rounded_stream(stream, bound)
    image = _cli(["render", "--in", "-", *render_args], stdin=stream)
    assert hashlib.sha256(image).hexdigest() == svg_digest


def test_gen_n3_float_stream_is_pinned():
    # float n = 3 walks deduplicate configurations and rows; the seed
    # document goes in on stdin
    document = shell.dumps_config(
        apollonian.standard_seed("euclidean", 3, "float")).encode()
    stream = _cli(["gen", "--in", "-", "--max-bend", "4"], stdin=document)
    assert stream == _rounded_stream(stream, 4.0)
    assert hashlib.sha256(stream).hexdigest() == \
        "7f719315d379490e49c628728476451c46288100e99472301f7d40ff717421b8"


# (lox arguments, sha256 of the stdout): 60 steps from one seed per
# geometry, in both modes
LOX_CASES = (
    (["--geometry", "euclidean", "--seed=-1,2,2,3"], "exact",
     "7eed8332ba3994c83bda5f655162f49145e794dbcfe0fd24ba6110993b474283"),
    (["--geometry", "euclidean", "--seed=-1,2,2,3"], "float",
     "134d1ae6ae2bd93f037d30a6b9ada5f2e502d21315ece695e4bbef2d2540e101"),
    (["--geometry", "spherical", "--seed=0,1,1,2"], "exact",
     "2b2333d7b462e22b348996c55d79d394f76c692027c1d43d582631eec3983567"),
    (["--geometry", "spherical", "--seed=0,1,1,2"], "float",
     "236663bad227d2c8d914b7eb224ef59a5eb098ebb1b79e5b2fccce0dd7004657"),
    (["--geometry", "hyperbolic", "--seed=-2,3,5,6"], "exact",
     "24d97d790acf9216ae1c041222cc29900d7618e9a3f6f3ad6f4e6d4b1e5709f9"),
    (["--geometry", "hyperbolic", "--seed=-2,3,5,6"], "float",
     "fe244187c366da7abe8e0507d0949b8769fc6514a045c6548ebf003fae414341"),
)


@pytest.mark.parametrize("args, mode, digest", LOX_CASES,
                         ids=[f"{a[1]}-{m}" for a, m, _ in LOX_CASES])
def test_lox_bytes_are_pinned(args, mode, digest):
    out = _cli(["lox", *args, "--steps", "60", "--mode", mode])
    assert hashlib.sha256(out).hexdigest() == digest
    if mode == "float":
        geometry, bends = args[1], args[2].partition("=")[2].split(",")
        seed = apollonian.realize_bends(geometry, tuple(map(float, bends)))
        assert json.loads(out)["bends"] == list(
            _rounded_reference_loxodromic(seed, 60).bends)


# (geometry, three bends, mode, sha256 of the solve stdout, {target:
# (sha256 of the convert stdout, sha256 of the verify stdout)}); the
# configuration of the larger completion is converted to each other
# geometry, and the converted document is verified
SOLVE_CASES = (
    ("euclidean", "2,2,3", "exact",
     "27c3d12386aec3b022adce8c57429103d48fe604bac145867f0f8329cbe6d12e",
     {"spherical": (
         "362b005407ff93c4aeca4db1611d939c192869953f7e142ecbaf2a6954d80479",
         "0edd50d9410a298110a44da5b7d85417132a279ef2497daa46a99fa84bcc70f5"),
      "hyperbolic": (
         "a1ff02971c2f2a29e58f2f9f09825921a722b5d96bd83c305674a06b60611bff",
         "feebbdae5e1c82674b93eb08909e39a55ba56a7badde1fe73efb013d60d8fe50")}),
    ("euclidean", "2,2,3", "float",
     "89d596fd57a6719f82fe339468db340cde180c4e367db757c1a5012d1bbe1db6",
     {"spherical": (
         "b9fb0139cb00759151820fe83d96f962de149223a2f7a1802caee2d5a89049b4",
         "50abc35153a3c5b7a6e09081697959ce2d3c8989b66d4dcdef5dec6e927ac6c9"),
      "hyperbolic": (
         "851fbb55a64cffd7ade672e601d25e91ef3c0293b5101d84b83fd516ff76b9c3",
         "f030e2ed56c5ed16d0ac3ff9417c5a5b469580bde5c1b1325947796e504e1b48")}),
    ("spherical", "1,1,2", "exact",
     "f9524992f569fb50396e69b6adc665f13f3e9a770ccf6f90207eee45f2b47928",
     {"euclidean": (
         "2095f8411785c919be3d24998d242fd056704887e639ed7912b10ba24311c93e",
         "d03fe79c6b74166f591aca62f50e7dbd73b80468266c296704cf6ec62f9ef098"),
      "hyperbolic": (
         "16efe854d844099ab3a478159081be4cbb0f98a89b31bdc244afa2cea5300f0d",
         "feebbdae5e1c82674b93eb08909e39a55ba56a7badde1fe73efb013d60d8fe50")}),
    ("spherical", "1,1,2", "float",
     "37befbc2c623bead42051cba76bee01784af54752683db9942b6c0c6ce18dbdf",
     {"euclidean": (
         "41e68fe25fa011434584c96bce236f33e6b9cf4446ffb6a9d35e07f323664151",
         "56095413db5d059dbf4c94c96718ffe2894913dbbfd4e77f6236277716cadbc2"),
      "hyperbolic": (
         "583367665947263bf8148faa9323d90758e57e4b51f68e8979488555826273a0",
         "8fa282e9164e9c378c470bd22f4410e6d946cd14b3e15ad1f9644035a90f4276")}),
    ("hyperbolic", "3,5,6", "exact",
     "5f1bde7a4aa7168da2456a380bc1ab706bd026ca3c2b130ff35137b8ca22cf47",
     {"euclidean": (
         "536bbb26e94857d5083b7b44a101bed91354a37492828619f08e54a7336852bd",
         "d03fe79c6b74166f591aca62f50e7dbd73b80468266c296704cf6ec62f9ef098"),
      "spherical": (
         "bd691ca251beebea6ad736d3c119566c44a61c58e27262678e1ab8df7871a71e",
         "0edd50d9410a298110a44da5b7d85417132a279ef2497daa46a99fa84bcc70f5")}),
    ("hyperbolic", "3,5,6", "float",
     "436cb0fda8e1115381f5ab7ac527c1d0a4e7f8375642270cecc12851b32aaa55",
     {"euclidean": (
         "00f80ecd4082e9baf2ae66a07087df7c6850e696973bcd3c335546b1bd89f31b",
         "2fab71b0858d8fdd3a2f31719e5a4d2145b79518cbfaf4f9d8897fd7fbcf1e96"),
      "spherical": (
         "67df09f267bda4a5cd7ba14c8f95c217858cc76b8abd7cafdf2357b14ddd157f",
         "940509cd453ff052503483fbe5ac0ced9292cae047852fa538ddd1d578e23171")}),
)


@pytest.mark.parametrize("geometry, bends, mode, solve_digest, converted",
                         SOLVE_CASES,
                         ids=[f"{g}-{m}" for g, _, m, _, _ in SOLVE_CASES])
def test_solve_convert_verify_bytes_are_pinned(geometry, bends, mode,
                                               solve_digest, converted):
    out = _cli(["solve", "--geometry", geometry, f"--seed={bends}",
                "--mode", mode])
    assert hashlib.sha256(out).hexdigest() == solve_digest
    document = json.dumps(json.loads(out)["configurations"][-1]).encode()
    for target, (convert_digest, verify_digest) in converted.items():
        text = _cli(["convert", "--to", target], stdin=document)
        assert hashlib.sha256(text).hexdigest() == convert_digest, target
        report = _cli(["verify"], stdin=text)
        assert hashlib.sha256(report).hexdigest() == verify_digest, target
