"""The four workloads: seeded inputs, the timed calls and their checks.

Every workload drives the package's public library API in the order the
CLI calls it, from one thread, one call at a time.  A run is a fixed number
of rounds derived from the requested seconds; the inputs depend only on the
workload seed, never on the machine, so two runs with one seed do the same
work.
"""

import dataclasses
import random
import statistics
import time
from fractions import Fraction

from inversive import apollonian, forms, shell, svg, transform
from inversive.scalars import ExactnessError

import checks
from checks import Fail

E, S, H = forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC
GEOMETRY_BASES = {S: (0, 1, 1, 2), H: (-2, 3, 5, 6)}

# The standard seed, in every gen workload.
MAIN = (E, (-1, 2, 2, 3), 100)
# Primitive integral Euclidean root quadruples (-a, b, c, d) with a <= 15.
ROOTS = (
    (-2, 3, 6, 7), (-3, 4, 12, 13), (-3, 5, 8, 8), (-4, 5, 20, 21),
    (-4, 8, 9, 9), (-5, 6, 30, 31), (-6, 7, 42, 43), (-6, 10, 15, 19),
    (-6, 11, 14, 15), (-7, 8, 56, 57), (-8, 9, 72, 73), (-9, 10, 90, 91),
    (-10, 14, 35, 39), (-12, 21, 28, 37), (-15, 24, 40, 49),
)
DRAWN_ROOTS = 5
# A root (-a, b, c, d) runs at bound 60a, which gives every root a packing
# of 69 to 89 rows: a seed draws which roots run, not how much work they are.
ROOT_BOUND_PER_BEND = 60
SIDE_BOUNDS = {S: 80, H: 150}
# Float generate loses the four bend-600 circles of this packing.
BOUND_EDGE = (E, (-8, 16, 16, 24), 600)
N3_BOUND = 4
WARM_BOUND = 30
# stream-render decodes, renders and re-encodes these in both modes.
STREAMS = ((E, (-1, 2, 2, 3), 200), (S, (0, 1, 1, 2), 100),
           (H, (-2, 3, 5, 6), 150))
# config-ops generates only tiny packings, of 10 to 30 rows.
TINY_BOUND_PER_BEND = 20
TINY_SIDE_BOUNDS = {S: 20, H: 30}
LOX_STEPS = 24
LABELS = ("bend", "none")
CUTOFFS = (1 / 800, 1 / 400, 1 / 200)
PROJECTIONS = (svg.ORTHOGRAPHIC, svg.STEREOGRAPHIC)
DEFAULT_OPTIONS = svg.RenderOptions()


def packing_key(geometry, bends, bound):
    return f"{geometry}:{','.join(map(str, bends))}:{bound}"


def options_key(options):
    return f"{options.labels},{options.cutoff!r},{options.projection}"


def root_packings(per_bend):
    return [(E, bends, per_bend * -bends[0]) for bends in ROOTS]


def side_packings(bounds):
    return [(g, GEOMETRY_BASES[g], bounds[g]) for g in (S, H)]


def draw_packings(rng):
    """The n = 2 packing inputs of the gen workloads: the standard seed,
    DRAWN_ROOTS other root quadruples drawn by the seed, and the spherical
    and hyperbolic seeds."""
    return [MAIN] + rng.sample(root_packings(ROOT_BOUND_PER_BEND), DRAWN_ROOTS) \
        + side_packings(SIDE_BOUNDS)


def draw_stream_options(rng, geometry):
    """Render options of the exact and of the float stream of one geometry,
    one per cutoff.  At each cutoff the two modes take opposite labels and,
    on the sphere, opposite projections; the seed draws which mode takes
    which.  Options change the cost of a render up to twofold, and this
    keeps the mix of costs the same for every seed."""
    per_mode = ([], [])
    for cutoff in CUTOFFS:
        labels = rng.sample(LABELS, 2)
        projections = rng.sample(PROJECTIONS, 2) if geometry == S \
            else (svg.ORTHOGRAPHIC,) * 2
        for options, label, projection in zip(per_mode, labels, projections):
            options.append(svg.RenderOptions(labels=label, cutoff=cutoff,
                                             projection=projection))
    return per_mode


def tiny_domain():
    return [(E, MAIN[1], TINY_BOUND_PER_BEND)] \
        + root_packings(TINY_BOUND_PER_BEND) + side_packings(TINY_SIDE_BOUNDS)


def reference_domain():
    """Every exact packing input any workload can draw, with the render
    options its SVG is checked under."""
    out = {}
    gen = [MAIN] + root_packings(ROOT_BOUND_PER_BEND) \
        + side_packings(SIDE_BOUNDS)
    for item in gen + tiny_domain():
        out.setdefault(item, {options_key(DEFAULT_OPTIONS): DEFAULT_OPTIONS})
    for item in STREAMS:
        for options in stream_options(item[0]):
            out.setdefault(item, {})[options_key(options)] = options
    return out


def stream_options(geometry):
    projections = PROJECTIONS if geometry == S else (svg.ORTHOGRAPHIC,)
    return [svg.RenderOptions(labels=labels, cutoff=cutoff, projection=p)
            for labels in LABELS for cutoff in CUTOFFS for p in projections]


def to_float(config):
    return forms.ConfigMatrix.from_rows(
        config.geometry, [r.entries for r in config.rows], mode="float")


def reflect_bends(bends, i):
    return bends[:i] + (2 * (sum(bends) - bends[i]) - bends[i],) + bends[i + 1:]


def draw_bend_vector(rng, geometry, word_length):
    """A Descartes bend vector: a root (Euclidean) or base vector, moved by
    a random reflection word of word_length letters."""
    bends = rng.choice((MAIN[1],) + ROOTS) if geometry == E \
        else GEOMETRY_BASES[geometry]
    last = None
    for _ in range(word_length):
        i = rng.choice([j for j in range(4) if j != last])
        bends, last = reflect_bends(bends, i), i
    return bends


# Seconds the calibration loop takes on the machine the benchmark was
# defined on (Intel Xeon, 2 vCPUs, shared), as the median of 20000 runs.
REFERENCE_LOOP_S = 130e-6


def calibration_loop():
    """A fixed piece of pure-Python work of the kind the package does:
    Fraction arithmetic, tuple-keyed dict stores and int formatting."""
    total, seen = Fraction(0), {}
    for i in range(1, 30):
        total += Fraction(i, i + 1)
        seen[i % 37, i] = str(i)
    return total


class Runner:
    """Times the calls into the package and keeps the account of the
    operations and their checks.

    Only the intervals of call() count as timed; checks run between them.
    On a shared machine the same call runs at one of two speeds about 1.9
    times apart, switching within a fraction of a second, and the share of
    time spent at each moves from one run to the next by more than any
    change worth measuring.  So call() first runs calibration_loop() and
    records its time too: the ratio of the call's time to the loop's cancels
    the speed of the machine at that moment.  Every round makes the same
    calls in the same order, and seconds() sums, over the calls of a round,
    the median ratio of each call over the rounds, times REFERENCE_LOOP_S.

    A check may be deferred to finish() when it needs work, such as an
    exact twin, that must not raise the peak memory of the timed phase.
    Verdicts are memoized by key, since rounds repeat the same outputs.
    """

    def __init__(self, counting=True):
        self.tracer = None
        self.counting = counting
        self.rounds = []  # per round, the seconds of each call in order
        self.loops = []  # per round, the seconds of the loop before each call
        self.attempted = 0
        self.failures = {}
        self._verdicts = {}
        self._deferred = []
        self._deferred_keys = set()

    def start_round(self):
        self.rounds.append([])
        self.loops.append([])

    def call(self, fn, *args):
        tracer = self.tracer
        start = time.perf_counter()
        calibration_loop()
        self.loops[-1].append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            took = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            self.rounds[-1].append(took)

    @property
    def elapsed(self):
        """Seconds spent inside calls, over every round."""
        return sum(map(sum, self.rounds))

    def seconds(self):
        """Seconds of one round at the reference speed of the machine."""
        if len({len(r) for r in self.rounds}) != 1:
            raise RuntimeError("rounds made different numbers of calls")
        ratios = [[t / k for t, k in zip(ts, ks)]
                  for ts, ks in zip(self.rounds, self.loops)]
        return REFERENCE_LOOP_S * sum(
            statistics.median(call) for call in zip(*ratios))

    def check(self, kind, inputs, verdict, key=None, defer=False):
        """Count one operation whose output verdict() judges."""
        if not self.counting:
            return
        self.attempted += 1
        if not defer:
            self._settle(kind, inputs, verdict, key)
        elif key in self._deferred_keys:
            # a later round's identical output; keep no reference to it
            self._deferred.append((kind, inputs, None, key))
        else:
            self._deferred_keys.add(key)
            self._deferred.append((kind, inputs, verdict, key))

    def finish(self):
        """Settle the deferred checks; call once the timed phases are over."""
        for entry in self._deferred:
            self._settle(*entry)
        self._deferred.clear()

    def _settle(self, kind, inputs, verdict, key):
        if key is None:
            result = verdict()
        else:
            if key not in self._verdicts:
                self._verdicts[key] = verdict()
            result = self._verdicts[key]
        if result is not None:
            record = (kind, repr(inputs), result.reason, result.defect)
            self.failures[record] = self.failures.get(record, 0) + 1

    def failure_list(self):
        return [{"kind": k, "input": i, "reason": r, "defect": d, "count": n}
                for (k, i, r, d), n in self.failures.items()]

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def unknown_failures(self):
        return sum(n for (_, _, _, d), n in self.failures.items() if d is None)


def rounds_for(seconds, round_seconds):
    return max(1, round(seconds / round_seconds))


def check_config(config, geometry, bends, exact):
    if config.geometry != geometry:
        return Fail(f"geometry {config.geometry} != {geometry}")
    got = config.bends
    same = got == tuple(bends) if exact else checks.rows_close(got, bends)
    if not same:
        return Fail(f"bends {got} != requested {tuple(bends)}")
    # Gram entries are sums of products of row entries, so a float
    # residual scales with the square of the largest entry.
    scale = max(abs(float(x)) for r in config.rows for x in r.entries)
    residual = forms.check_identity(
        config, forms.descartes_form(config.n, config.mode),
        forms.target_for(geometry, config.n, config.mode),
        checks.GRAM_TOL * max(1.0, scale * scale))
    if not residual.ok:
        return Fail(f"Gram residual {residual.max_abs_entry_error}")
    return None


def check_round_trip(loaded, packing, text):
    if loaded.rows != packing.rows:
        return Fail("loads(dumps(p)) rows differ from p")
    again = shell.dumps_packing(loaded)
    if again != text:
        return Fail("dumps(loads(stream)) is not byte-identical to stream")
    return None


def realize_failure(geometry, error):
    """Verdict on a float realization that raised where the exact one of
    the same bends succeeded."""
    reason = f"float realize_bends raised {type(error).__name__}: {error}"
    if geometry == H and "no realization found" in str(error):
        return Fail(reason, checks.FLOAT_HYPERBOLIC_REALIZE)
    return Fail(reason)


class Workload:
    name = None
    round_seconds = None  # nominal seconds per round, sets the round count

    def __init__(self, seed, seconds, reference):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.rounds = rounds_for(seconds, self.round_seconds)
        self.reference = reference

    def setup(self):
        """Build the inputs; runs before warm-up and is part of setup_s."""

    def warm_up(self, run):
        raise NotImplementedError

    def run_round(self, run):
        """One round of the timed calls; returns the items it completed.
        Every round makes the same calls on the same inputs."""
        raise NotImplementedError

    def describe(self):
        raise NotImplementedError

    def ref(self, geometry, bends, bound):
        return self.reference["packings"].get(packing_key(geometry, bends, bound))


class GenRenderExact(Workload):
    """realize_bends -> generate -> dumps_packing -> loads_packing ->
    svg.render in exact mode.  Item: one circle row delivered to SVG."""

    name = "gen-render-exact"
    round_seconds = 0.45

    def __init__(self, seed, seconds, reference):
        super().__init__(seed, seconds, reference)
        self.inputs = draw_packings(self.rng)

    def describe(self):
        return {"inputs": [list(i) for i in self.inputs]}

    def warm_up(self, run):
        for geometry, bends, _ in self.inputs:
            self.pipeline(run, geometry, bends, WARM_BOUND)

    def run_round(self, run):
        return sum(self.pipeline(run, *item) for item in self.inputs)

    def pipeline(self, run, geometry, bends, bound):
        desc = (geometry, bends, bound, "exact")
        ref = self.ref(geometry, bends, bound) or {}
        seed = run.call(apollonian.realize_bends, geometry, bends)
        run.check("realize_bends", desc,
                  lambda: check_config(seed, geometry, bends, True))
        packing = run.call(apollonian.generate, seed, Fraction(bound))
        run.check("generate", desc, lambda: self.check_packing(packing, ref))
        text = run.call(shell.dumps_packing, packing)
        run.check("dumps_packing", desc,
                  lambda: checks.digest(text, ref.get("json"), "JSON"))
        loaded = run.call(shell.loads_packing, text)
        run.check("loads_packing", desc,
                  lambda: check_round_trip(loaded, packing, text))
        image = run.call(svg.render, loaded)
        run.check("render", desc, lambda: checks.digest(
            image, ref.get("svg", {}).get(options_key(DEFAULT_OPTIONS)), "SVG"))
        return len(loaded.rows)

    @staticmethod
    def check_packing(packing, ref):
        if len(packing.rows) != ref.get("rows"):
            return Fail(f"{len(packing.rows)} rows, reference {ref.get('rows')}")
        if packing.geometry == E and \
                not apollonian.integrality_report(packing).all_integral:
            return Fail("non-integral bend in a root-quadruple packing")
        return None


class GenFloat(Workload):
    """The gen-render-exact pipeline in float mode, plus the float-only
    n = 3 Euclidean seed (generate -> dumps -> loads).  Item: one row."""

    name = "gen-float"
    round_seconds = 0.2

    def __init__(self, seed, seconds, reference):
        super().__init__(seed, seconds, reference)
        self.inputs = draw_packings(self.rng) + [BOUND_EDGE]
        self._twins = {}

    def describe(self):
        return {"inputs": [list(i) for i in self.inputs],
                "n3": ["euclidean", "standard_seed(n=3)", N3_BOUND]}

    def setup(self):
        # Exact realizations stand in for a float realization that fails.
        self.exact_seeds = {
            (g, b): apollonian.realize_bends(g, b) for g, b, _ in self.inputs}
        self.n3_seed = apollonian.standard_seed(E, n=3, mode="float")

    def warm_up(self, run):
        for geometry, bends, _ in self.inputs:
            self.pipeline(run, geometry, bends, WARM_BOUND)
        self.n3_pipeline(run, 3)

    def run_round(self, run):
        items = sum(self.pipeline(run, *item) for item in self.inputs)
        return items + self.n3_pipeline(run, N3_BOUND)

    def pipeline(self, run, geometry, bends, bound):
        desc = (geometry, bends, bound, "float")
        vector = tuple(float(b) for b in bends)
        try:
            seed = run.call(apollonian.realize_bends, geometry, vector)
        except (ValueError, ExactnessError) as e:
            run.check("realize_bends", desc, lambda: realize_failure(geometry, e),
                      key=("realize", desc, repr(e)))
            seed = to_float(self.exact_seeds[geometry, bends])
        else:
            run.check("realize_bends", desc,
                      lambda: check_config(seed, geometry, vector, False),
                      key=("realize", desc, repr(seed)))
        packing = run.call(apollonian.generate, seed, float(bound))
        fingerprint = checks.rows_fingerprint(packing.rows)
        run.check("generate", desc,
                  lambda: self.twin(geometry, bends, bound, packing)[0],
                  key=("generate", desc, fingerprint), defer=True)
        text = run.call(shell.dumps_packing, packing)
        loaded = run.call(shell.loads_packing, text)
        run.check("dumps_packing", desc,
                  lambda: check_round_trip(loaded, packing, text),
                  key=("round-trip", desc, checks.sha256(text)))
        run.check("loads_packing", desc,
                  lambda: None if loaded.rows == packing.rows
                  else Fail("loaded rows differ from generated rows"))
        image = run.call(svg.render, loaded)
        run.check("render", desc,
                  lambda: self.twin_svg(geometry, bends, bound, packing, image),
                  key=("render", desc, checks.sha256(image)), defer=True)
        return len(loaded.rows)

    def n3_pipeline(self, run, bound):
        desc = (E, "standard_seed(n=3)", bound, "float")
        packing = run.call(apollonian.generate, self.n3_seed, float(bound))
        run.check("generate", desc, lambda: self.check_n3(packing, bound),
                  key=("n3", bound, checks.rows_fingerprint(packing.rows)))
        text = run.call(shell.dumps_packing, packing)
        loaded = run.call(shell.loads_packing, text)
        run.check("dumps_packing", desc,
                  lambda: check_round_trip(loaded, packing, text),
                  key=("n3-round-trip", bound, checks.sha256(text)))
        return len(loaded.rows)

    def check_n3(self, packing, bound):
        expected = self.reference["n3"].get(str(bound))
        if len(packing.rows) != expected:
            return Fail(f"{len(packing.rows)} rows, reference {expected}")
        for row in packing.rows:
            if not checks.close(forms.pair_product(E, row, row), 1.0):
                return Fail(f"row {row.entries} fails its pair-product identity")
        return None

    def twin(self, geometry, bends, bound, packing):
        """(verdict, exact rows matched) against the exact twin packing."""
        key = (geometry, bends, bound, checks.rows_fingerprint(packing.rows))
        if key not in self._twins:
            exact = apollonian.generate(self.exact_seeds[geometry, bends],
                                        Fraction(bound))
            verdict, matched = checks.twin_rows(
                packing.rows, exact.rows, forms.bend_column(geometry), bound)
            self._twins[key] = verdict, dataclasses.replace(
                exact, rows=tuple(matched))
        return self._twins[key]

    def twin_svg(self, geometry, bends, bound, packing, image):
        _, exact = self.twin(geometry, bends, bound, packing)
        return checks.svg_close(image, svg.render(exact))


class StreamRender(Workload):
    """loads_packing -> svg.render (once per cutoff) -> dumps_packing over
    pre-generated streams of both modes and all three geometries.  Item:
    one row decoded, rendered and re-encoded."""

    name = "stream-render"
    round_seconds = 0.09

    def __init__(self, seed, seconds, reference):
        super().__init__(seed, seconds, reference)
        self.streams = []
        for geometry, bends, bound in STREAMS:
            options = draw_stream_options(self.rng, geometry)
            for mode, o in zip(("exact", "float"), options):
                self.streams.append((geometry, bends, bound, mode, o))

    def describe(self):
        return {"streams": [[g, b, n, m, [options_key(x) for x in o]]
                            for g, b, n, m, o in self.streams]}

    def setup(self):
        self.packings, self.texts = {}, {}
        for geometry, bends, bound, mode, _ in self.streams:
            seed = apollonian.realize_bends(geometry, bends)
            if mode == "float":
                seed, bound = to_float(seed), float(bound)
            packing = apollonian.generate(seed, bound)
            self.packings[geometry, mode] = packing
            self.texts[geometry, mode] = shell.dumps_packing(packing)

    def warm_up(self, run):
        self.run_round(run)

    def run_round(self, run):
        return sum(self.stream(run, *item) for item in self.streams)

    def stream(self, run, geometry, bends, bound, mode, options):
        desc = (geometry, bends, bound, mode)
        text = self.texts[geometry, mode]
        loaded = run.call(shell.loads_packing, text)
        images = [run.call(svg.render, loaded, o) for o in options]
        out = run.call(shell.dumps_packing, loaded)
        run.check("loads_packing", desc,
                  lambda: self.check_rows(loaded, geometry, bends, bound, mode))
        run.check("dumps_packing", desc, lambda: None if out == text else
                  Fail("dumps(loads(stream)) is not byte-identical"))
        ref = self.ref(geometry, bends, bound) or {}
        for o, image in zip(options, images):
            key = options_key(o)
            if mode == "exact":
                run.check("render", desc + (key,), lambda: checks.digest(
                    image, ref.get("svg", {}).get(key), "SVG"))
            else:
                run.check("render", desc + (key,),
                          lambda: self.twin_svg(geometry, loaded, image, o),
                          key=("render", desc, key, checks.sha256(image)),
                          defer=True)
        return len(loaded.rows)

    def check_rows(self, loaded, geometry, bends, bound, mode):
        if loaded.rows != self.packings[geometry, mode].rows:
            return Fail("loaded rows differ from the packing the stream encodes")
        if mode == "exact":
            expected = (self.ref(geometry, bends, bound) or {}).get("rows")
            if len(loaded.rows) != expected:
                return Fail(f"{len(loaded.rows)} rows, reference {expected}")
        return None

    def twin_svg(self, geometry, loaded, image, options):
        exact = shell.loads_packing(self.texts[geometry, "exact"])
        _, matched = checks.twin_rows(loaded.rows, exact.rows,
                                      forms.bend_column(geometry), exact.bound)
        exact = dataclasses.replace(exact, rows=tuple(matched))
        return checks.svg_close(image, svg.render(exact, options))


class ConfigOps(Workload):
    """Many small library requests mirroring the CLI commands, each run as
    an exact twin and then a float twin on the same input.  Item: one
    request."""

    name = "config-ops"
    round_seconds = 0.6
    # Requests of each kind in a session, each made in both modes.  The
    # pool kinds visit every pool entry equally often, and word lengths
    # cycle, so a seed draws which inputs are used but not how large
    # they are.
    MIX = (("verify", 48), ("convert", 24), ("solve", 48), ("lox", 24),
           ("generate", 8))
    POOL_PER_GEOMETRY = 8
    POOL_WORDS = 4  # pool entry k is moved by a word of k % 4 letters
    SOLVE_WORDS = 5

    def __init__(self, seed, seconds, reference):
        super().__init__(seed, seconds, reference)
        rng = self.rng
        self.pool_vectors = [(g, draw_bend_vector(rng, g, k % self.POOL_WORDS))
                             for g in (E, S, H)
                             for k in range(self.POOL_PER_GEOMETRY)]
        tiny = tiny_domain()
        self.session = []
        for kind, count in self.MIX:
            for k in range(count):
                if kind == "solve":
                    g = (E, S, H)[k % 3]
                    arg = (g, draw_bend_vector(rng, g, k // 3 % self.SOLVE_WORDS))
                elif kind == "generate":
                    arg = rng.choice(tiny)
                else:
                    arg = k % len(self.pool_vectors)
                self.session.append((kind, arg))
        rng.shuffle(self.session)

    def describe(self):
        return {"pool": [[g, b] for g, b in self.pool_vectors],
                "session": [[kind, arg] for kind, arg in self.session],
                "requests_per_round": 2 * len(self.session)}

    def setup(self):
        self.pool = []
        for geometry, bends in self.pool_vectors:
            exact = apollonian.realize_bends(geometry, bends)
            fl = to_float(exact)
            self.pool.append({
                "geometry": geometry, "bends": bends,
                "exact": exact, "float": fl,
                "exact_doc": shell.dumps_config(exact),
                "float_doc": shell.dumps_config(fl)})
        self.tiny_seeds = {(g, b): apollonian.realize_bends(g, b)
                           for g, b, _ in tiny_domain()}

    def warm_up(self, run):
        self.run_round(run)

    def run_round(self, run):
        for kind, arg in self.session:
            getattr(self, "_" + kind)(run, arg)
        return 2 * len(self.session)

    # each handler runs the exact twin, then the float twin, then checks both

    def _verify(self, run, index):
        item = self.pool[index]
        desc = ("verify", item["geometry"], item["bends"])
        docs = {m: run.call(shell.parse_document, item[m + "_doc"])
                for m in ("exact", "float")}

        def verdict(mode):
            doc = docs[mode]
            if not doc.valid:
                return Fail(f"{mode} document judged invalid")
            source = [r.entries for r in item[mode].rows]
            if list(doc.rows) != source:
                return Fail(f"{mode} document rows differ from the source")
            if not all(checks.rows_close(a, b)
                       for a, b in zip(doc.rows, docs["exact"].rows)):
                return Fail(f"{mode} rows differ from the exact twin")
            return None

        seen = repr(docs)
        run.check("verify", desc + ("exact",), lambda: verdict("exact"),
                  key=(desc, "exact", seen))
        run.check("verify", desc + ("float",), lambda: verdict("float"),
                  key=(desc, "float", seen))

    def _convert(self, run, index):
        item = self.pool[index]
        src = item["geometry"]
        targets = [g for g in (E, S, H) if g != src]
        outs = {}
        for mode in ("exact", "float"):
            w = run.call(shell.loads_config, item[mode + "_doc"])
            converted = []
            for target in targets:
                c = run.call(transform.convert_matrix, w, target)
                converted.append((target, c, run.call(shell.dumps_config, c)))
            outs[mode] = w, converted
        desc = ("convert", src, item["bends"])

        def exact_verdict():
            w, converted = outs["exact"]
            for target, c, text in converted:
                back = transform.convert_matrix(c, src)
                if back.rows != w.rows:
                    return Fail(f"{src}->{target}->{src} does not return the input")
                if not shell.parse_document(text).valid:
                    return Fail(f"converted {target} document is invalid")
            return None

        def float_verdict():
            for (t, c, text), (_, ce, _) in zip(outs["float"][1], outs["exact"][1]):
                if not all(checks.rows_close(a.entries, b.entries)
                           for a, b in zip(c.rows, ce.rows)):
                    return Fail(f"float {src}->{t} differs from the exact twin")
                if not shell.parse_document(text).valid:
                    return Fail(f"converted {t} document is invalid")
            return None

        seen = repr(outs)
        run.check("convert", desc + ("exact",), exact_verdict,
                  key=(desc, "exact", seen))
        run.check("convert", desc + ("float",), float_verdict,
                  key=(desc, "float", seen))

    def _solve(self, run, arg):
        geometry, bends = arg
        outcome = {}
        for mode in ("exact", "float"):
            values = tuple(bends[:3]) if mode == "exact" \
                else tuple(float(b) for b in bends[:3])
            try:
                roots = run.call(shell.complete_bend, geometry, values)
            except (ValueError, ExactnessError) as e:
                outcome[mode] = e, []
                continue
            realized = []
            for r in roots:
                try:
                    realized.append(
                        run.call(apollonian.realize_bends, geometry, values + (r,)))
                except (ValueError, ExactnessError) as e:
                    realized.append(e)  # the CLI reports these as not realized
            outcome[mode] = roots, realized
        desc = ("solve", geometry, bends)

        def exact_verdict():
            roots, realized = outcome["exact"]
            if isinstance(roots, ExactnessError):
                return None  # an irrational completion is a documented error
            if isinstance(roots, Exception):
                return Fail(f"complete_bend raised {roots}")
            if bends[3] not in roots:
                return Fail(f"completions {roots} miss {bends[3]}")
            for r, w in zip(roots, realized):
                if not isinstance(w, Exception):
                    bad = check_config(w, geometry, tuple(bends[:3]) + (r,), True)
                    if bad:
                        return bad
            return None

        def float_verdict():
            roots, realized = outcome["float"]
            exact_roots, exact_realized = outcome["exact"]
            if isinstance(exact_roots, Exception):
                return None
            if isinstance(roots, Exception):
                return Fail(f"float complete_bend raised {roots}")
            if not checks.rows_close(roots, exact_roots):
                return Fail(f"float completions {roots} != exact {exact_roots}")
            values = tuple(float(b) for b in bends[:3])
            for r, w, we in zip(roots, realized, exact_realized):
                if isinstance(w, Exception):
                    if not isinstance(we, Exception):
                        return realize_failure(geometry, w)
                    continue
                bad = check_config(w, geometry, values + (r,), False)
                if bad:
                    return bad
            return None

        seen = repr(outcome)
        run.check("solve", desc + ("exact",), exact_verdict,
                  key=(desc, "exact", seen))
        run.check("solve", desc + ("float",), float_verdict,
                  key=(desc, "float", seen))

    def _lox(self, run, index):
        item = self.pool[index]
        seqs = {m: run.call(apollonian.loxodromic, item[m], LOX_STEPS)
                for m in ("exact", "float")}
        desc = ("lox", item["geometry"], item["bends"], LOX_STEPS)
        # Once every seed row has been replaced, which the first four steps
        # do, each new bend follows from the previous four.
        bends = seqs["exact"].bends
        run.check("lox", desc + ("exact",), lambda: None
                  if bends[:4] == item["exact"].bends
                  and len(bends) == 4 + LOX_STEPS
                  and apollonian.recurrence_check(bends[4:])
                  else Fail("exact bends break the fourth order recurrence"))
        run.check("lox", desc + ("float",), lambda: None
                  if checks.rows_close(seqs["float"].bends, seqs["exact"].bends)
                  else Fail("float bends differ from the exact twin"))

    def _generate(self, run, arg):
        geometry, bends, bound = arg
        seed = self.tiny_seeds[geometry, bends]
        exact = run.call(apollonian.generate, seed, Fraction(bound))
        fl = run.call(apollonian.generate, to_float(seed), float(bound))
        desc = ("generate", geometry, bends, bound)
        ref = self.ref(geometry, bends, bound) or {}

        def exact_verdict():
            if len(exact.rows) != ref.get("rows"):
                return Fail(f"{len(exact.rows)} rows, reference {ref.get('rows')}")
            return checks.digest(shell.dumps_packing(exact), ref.get("json"), "JSON")

        seen = (checks.rows_fingerprint(exact.rows),
                checks.rows_fingerprint(fl.rows))
        run.check("generate", desc + ("exact",), exact_verdict,
                  key=(desc, "exact", seen))
        run.check("generate", desc + ("float",), lambda: checks.twin_rows(
            fl.rows, exact.rows, forms.bend_column(geometry), bound)[0],
                  key=(desc, "float", seen))


WORKLOADS = {w.name: w for w in (GenRenderExact, GenFloat, StreamRender, ConfigOps)}
