"""End-to-end byte guard: `inversive gen ... | inversive render --in -` run as
two processes, with the sha256 of the packing stream and of the SVG pinned.

The first four digests were recorded from the CLI before exact packings kept
their rows as ints in the frame of scalars.scaled_rows, the last four before
the renderer formatted each circle size once; any change to the stream or
image bytes of these inputs shows up here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inversive

# (gen arguments, render arguments, sha256 of the gen stdout, sha256 of the
# SVG)
CASES = (
    (["--geometry", "euclidean", "--seed=-1,2,2,3", "--max-bend", "1000"], [],
     "26db91cf151e8e92a79a0afc81ead25ba051d0457c49aef478aba8d68207929d",
     "a5a722a1b7f960dbcaf4a01249373fe22d762f7f1c61e3f0b5c1a03d2264fbeb"),
    (["--geometry", "euclidean", "--seed=-1,2,2,3", "--max-bend", "1000",
      "--mode", "float"], [],
     "0abe5fa21eb017b17c655d21b99427d766a2f6e04e9ff6abbee4d7302d34a5cb",
     "0771c2178a67e801338af4337e99ed3cd826a2f46b6b32884ecf084e7bd0a7dc"),
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


@pytest.mark.parametrize("args, render_args, gen_digest, svg_digest", CASES,
                         ids=["euclidean-exact", "euclidean-float",
                              "spherical", "hyperbolic",
                              "spherical-stereographic",
                              "euclidean-unlabelled-cutoff", "capped-strip",
                              "hyperbolic-640x480"])
def test_gen_render_bytes_are_pinned(args, render_args, gen_digest,
                                     svg_digest):
    stream = _cli(["gen", *args])
    assert hashlib.sha256(stream).hexdigest() == gen_digest
    image = _cli(["render", "--in", "-", *render_args], stdin=stream)
    assert hashlib.sha256(image).hexdigest() == svg_digest
