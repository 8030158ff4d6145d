"""The four benchmark workloads: inputs, the timed operation, and its checks.

Every input is generated here from the workload seed; qmac only ever sees
the generated matrices, seeds and file paths.  Each workload leads with
``min_ops`` operations that always run, whatever ``--seconds`` says; its
``quality`` figure and its heavier oracle checks (``verify``) use only those,
so both are fixed for a given seed and do not depend on machine speed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time
from typing import NamedTuple

import numpy as np

import reference

BUILTINS = ("identity", "x_block", "secure_example")
STRICT = 1e-9  # qmac's default strict margin; the checks hold qmac to it


# --- independent oracles ----------------------------------------------------
# These deliberately do not call qmac, so that they can catch it being wrong.
# Inputs are drawn here too, so a change to qmac's sampler cannot change them.

def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary from the QR of a complex Ginibre matrix, phases fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / np.sqrt(2))
    d = np.diag(r)
    return q * (d / np.abs(d))


def no_message_oracle(u: np.ndarray) -> float:
    """Optimal no-message forgery probability, (1 + sigma_max(M0)) / 2."""
    return float((1 + np.linalg.svd(u[:2, :2], compute_uv=False)[0]) / 2)


def substitution_pf(u: np.ndarray, v: np.ndarray) -> float:
    """Bit-flip acceptance of attack ``v`` under uniform message priors."""
    w = u.conj().T @ v @ u
    return float(0.25 * (abs(v[1, 0]) ** 2 + abs(w[1, 0]) ** 2
                         + abs(v[0, 1]) ** 2 + abs(w[0, 1]) ** 2))


def matrix_json(m: np.ndarray) -> dict:
    """qmac's matrix interchange format, written without qmac."""
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(x.real), float(x.imag)] for x in m.ravel()],
    }


def matrix_of_json(obj: dict) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in obj["data"]])
    return flat.reshape(obj["rows"], obj["cols"])


def unitary_gap(m: np.ndarray) -> float:
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


def _close(a: float, b: float, what: str, tol: float = 1e-9) -> list[str]:
    return [] if abs(a - b) <= tol else [f"{what}: {a!r} != {b!r}"]


def _seeds(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


class Op(NamedTuple):
    """One timed operation: its input, result, time and check failures.

    ``seconds`` is already scaled to the reference machine speed by
    ``scale`` (see reference.py); raw wall time is seconds / scale.
    """

    inp: dict
    res: object
    seconds: float
    scale: float
    failures: list


class Workload:
    """Interface shared by the workloads; see the subclasses for the why."""

    name = ""
    why = ""
    stream = 0  # keeps the workloads' random streams apart for one seed
    min_ops = 1
    batch = 1  # the timed loop stops only on a multiple of this many ops
    reference_blocks: tuple = (reference.search,)  # closest in work mix; see reference.py
    expect: tuple = ()  # spans the traced run must see
    absent: tuple = ()  # spans the traced run must not see
    aliases: dict = {}  # end-to-end metric -> its per-workload name in the report

    def __init__(self, q, workdir):
        self.q = q
        self.workdir = workdir

    def inputs(self, seed: int):
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, res) -> list[str]:
        return []

    def verify(self, done: list[Op]) -> dict[int, list[str]]:
        """Heavier oracle checks on the leading ops: {op index: failures}."""
        return {}

    def quality(self, done: list[Op]) -> float:
        raise NotImplementedError

    def report(self, done: list[Op]) -> dict:
        """This workload's own metrics for the report line: {name: (value, unit)}."""
        return {}


class Audit(Workload):
    # Why: few long substitution searches (about 6 restarts x 333 evals per
    # unitary) and almost no joint-state simulation, so it isolates
    # adversary.best_message_attack; a faster or stronger search shows here.
    name = "audit"
    why = "full security audit per unitary: long best_message_attack searches, almost no joint-state simulation"
    stream = 1
    min_ops = 16
    batch = 12  # one builtin every 4 ops, each builtin once per 12
    budget = 2000
    aliases = {"ops_per_s": "audit.reports_per_s", "latency_p50_ms": "audit.latency_p50_ms",
               "latency_tail_ms": "audit.latency_tail_ms", "quality": "audit.message_pf_mean"}
    expect = ("conditions.validate", "adversary.best_message_attack",
              "adversary.perfect_message_attack", "adversary.no_message_optimal",
              "adversary.key_distinguishability", "adversary.key_reuse_feasibility",
              "protocol.TaggingUnitary")
    absent = ("adversary.simulate_key_reuse", "adversary.reuse_forgery_probability",
              "designer.optimize", "designer.security_score", "cli.main",
              "protocol.simulate_honest_batch")

    def inputs(self, seed):
        rng = _seeds(seed, self.stream)
        for i in itertools.count():
            if i % 4 == 0:
                kind = BUILTINS[(i // 4) % 3]
                u = self.q.fixtures.BUILTIN[kind]()
            else:
                kind, u = "haar", haar(4, rng)
            yield {"kind": kind, "u": u, "seed": int(rng.integers(2**31))}

    def warmup(self):
        self.op({"kind": "secure_example",
                 "u": self.q.fixtures.BUILTIN["secure_example"](), "seed": 0})

    def op(self, inp):
        q = self.q
        tu = q.protocol.TaggingUnitary(inp["u"])
        return {
            "report": q.conditions.validate(tu, attack_budget=self.budget, seed=inp["seed"]),
            "perfect": q.adversary.perfect_message_attack(tu),
            "distinguishable": q.adversary.key_distinguishability(tu),
            "reuse": q.adversary.key_reuse_feasibility(tu),
        }

    def check(self, inp, res):
        u, kind, report = inp["u"], inp["kind"], res["report"]
        adv = report.advisory
        pf = adv["message_attack_pf_best"]
        out = _close(adv["no_message_pf_optimal"], no_message_oracle(u), "no-message optimum")
        if not 0 <= pf <= 1 + 1e-12:
            out.append(f"message pf {pf} outside [0, 1]")
        if kind in ("identity", "x_block"):
            if pf < 1 - STRICT:
                out.append(f"{kind}: searched pf {pf} < 1")
            if res["perfect"] is None or substitution_pf(u, res["perfect"]) < 1 - STRICT:
                out.append(f"{kind}: no certainty attack constructed")
        if (res["perfect"] is None) != report.condition3.satisfied:
            out.append("perfect attack disagrees with condition 3")
        if kind in ("identity", "x_block") and report.overall_secure:
            out.append(f"{kind} reported secure")
        if kind == "secure_example" and not report.overall_secure:
            out.append("secure_example reported insecure")
        if res["distinguishable"].distinguishable != bool(np.abs(u[:2, :2]).max() <= STRICT):
            out.append("key distinguishability disagrees with M0")
        if res["reuse"].ruled_out != bool(max(abs(u[0, 0]), abs(u[1, 1])) > STRICT):
            out.append("key-reuse feasibility disagrees with diag(U)")
        return out

    def verify(self, done):
        # Re-run validate's search to get its strategy (validate keeps only
        # the probability) and re-evaluate that strategy independently.
        q, out = self.q, {}
        for i, (inp, res, *_) in enumerate(done[:4]):
            att = q.adversary.best_message_attack(
                q.protocol.TaggingUnitary(inp["u"]), budget=self.budget,
                rng=np.random.default_rng(inp["seed"]))
            fails = _close(att.probability, res["report"].advisory["message_attack_pf_best"],
                           "search not reproducible", tol=0.0)
            fails += _close(substitution_pf(inp["u"], att.strategy), att.probability,
                            "re-evaluated strategy pf")
            out[i] = fails
        return out

    def quality(self, done):
        # Attack strength: a faster but weaker search reads as a regression.
        return float(np.mean([op.res["report"].advisory["message_attack_pf_best"]
                              for op in done[:self.min_ops]]))


class Design(Workload):
    # Why: many short searches (budget 500), each behind a TaggingUnitary
    # construction and a condition check, with insecure Haar draws redrawn;
    # a change that speeds long searches but adds per-call set-up shows here
    # and not on audit.
    name = "design"
    why = "designer.optimize: many short searches, each behind per-call set-up and a condition check; insecure draws are redrawn"
    stream = 2
    min_ops = 4
    restarts = 1
    budget = 500
    expect = ("designer.optimize", "designer.security_score", "conditions.validate",
              "adversary.best_message_attack", "adversary.no_message_optimal",
              "linalg.haar_random_unitary", "protocol.TaggingUnitary")
    absent = ("adversary.simulate_key_reuse", "adversary.reuse_forgery_probability",
              "cli.main", "protocol.simulate_honest_batch", "linalg.matrix_to_json")

    def inputs(self, seed):
        rng = _seeds(seed, self.stream)
        while True:
            yield {"seed": int(rng.integers(2**31))}

    def warmup(self):
        self.q.designer.security_score(
            self.q.fixtures.BUILTIN["secure_example"](), budget=self.budget)

    def op(self, inp):
        return self.q.designer.optimize(
            restarts=self.restarts, budget=self.budget,
            rng=np.random.default_rng(inp["seed"]))

    def check(self, inp, res):
        u, sc = res.unitary, res.score
        out = []
        if unitary_gap(u) > 1e-10:
            out.append(f"design is not unitary ({unitary_gap(u):.2e})")
        if not self.q.conditions.validate(u, include_attacks=False).overall_secure:
            out.append("design does not re-validate as secure")
        if not sc.secure or sc.score != max(sc.pf_no_message, sc.pf_message_best):
            out.append(f"score {sc.score} != max({sc.pf_no_message}, {sc.pf_message_best})")
        out += _close(sc.pf_no_message, no_message_oracle(u), "no-message optimum")
        return out

    def score_mean(self, done):
        return float(np.mean([op.res.score.score for op in done[:self.min_ops]]))

    def quality(self, done):
        # Reciprocal of the mean worst-case score, so that higher is better.
        return 1 / self.score_mean(done)

    def report(self, done):
        return {
            "design.time_to_design_s": (float(np.median([op.seconds for op in done])), "s"),
            "design.score_mean": (self.score_mean(done), "prob"),
        }


class Reuse(Workload):
    # Why: the 32-dim kron / matvec / partial-trace path of the key-reuse
    # analysis with no search at all; it is the target of exact 8-dim
    # propagation work and the "no change" control for search work.
    name = "reuse"
    why = "key-reuse Monte Carlo and exact forgery on 32-dim joint states; no search, control for search changes"
    stream = 3
    min_ops = 24
    reference_blocks = (reference.state,)
    interactions = 3  # per op, each against secure_example and a Haar tagging
    rounds = 3
    trials = 100
    check_trials = 2000
    expect = ("adversary.simulate_key_reuse", "adversary.reuse_forgery_probability",
              "linalg.tensor", "linalg.partial_trace", "protocol.TaggingUnitary")
    absent = ("adversary.best_message_attack", "adversary.perfect_message_attack",
              "conditions.validate", "designer.optimize", "designer.security_score",
              "cli.main", "linalg.haar_random_unitary")

    def inputs(self, seed):
        # Each op runs several interactions against both taggings, so op
        # costs vary little and the latency median does not sit between modes.
        rng = _seeds(seed, self.stream)
        example = self.q.fixtures.BUILTIN["secure_example"]()
        while True:
            taggings = (example, haar(4, rng))
            yield [{"u": u, "interaction": interaction, "seed": s}
                   for interaction, s in [(haar(8, rng), int(rng.integers(2**31)))
                                          for _ in range(self.interactions)]
                   for u in taggings]

    def warmup(self):
        self.op([{"u": self.q.fixtures.BUILTIN["secure_example"](),
                  "interaction": np.eye(8, dtype=complex), "seed": 0}])

    def op(self, inp):
        adv, out = self.q.adversary, []
        for case in inp:
            t0 = time.perf_counter()
            stats = adv.simulate_key_reuse(case["u"], self.rounds, case["interaction"],
                                           np.random.default_rng(case["seed"]),
                                           trials=self.trials)
            t1 = time.perf_counter()
            exact = adv.reuse_forgery_probability(case["u"], case["interaction"])
            t2 = time.perf_counter()
            out.append({"stats": stats, "exact": exact, "sim_s": t1 - t0, "exact_s": t2 - t1})
        return out

    def check(self, inp, res):
        out = []
        for r in res:
            st, exact = r["stats"], r["exact"]
            if not 0 <= st.forgery_successes <= st.forgery_attempts <= self.trials:
                out.append(f"counts: {st.forgery_successes}/{st.forgery_attempts}/{self.trials}")
            if any(not (0 <= a <= 1) for a in st.per_round_acceptance if a == a):
                out.append(f"per-round acceptance {st.per_round_acceptance}")
            if st.forgery_attempts and not 0 <= st.final_key_fidelity <= 1 + 1e-9:
                out.append(f"key fidelity {st.final_key_fidelity}")
            if not 0 <= exact <= 1 + 1e-12:
                out.append(f"exact forgery probability {exact}")
        return out

    def verify(self, done):
        # One-round Monte Carlo against the exact single-round probability,
        # |rate - p| <= 4 sigma (plus float slack), for the first interaction
        # of op 0 against both taggings.
        fails = []
        for case, r in list(zip(done[0].inp, done[0].res))[:2]:
            st = self.q.adversary.simulate_key_reuse(
                case["u"], 1, case["interaction"], np.random.default_rng(case["seed"]),
                trials=self.check_trials)
            p, n = r["exact"], st.forgery_attempts
            sigma = np.sqrt(p * (1 - p) / n) if n else 1.0
            rate = st.forgery_success_rate if n else p
            if abs(rate - p) > 4 * sigma + 1e-9:
                fails.append(f"one-round rate {rate} vs exact {p} over {n} attempts")
        return {0: fails}

    def quality(self, done):
        # Exact reuse-forgery probability: fixed by the seed, so it moves only
        # if the analysis itself changes.
        return float(np.mean([r["exact"] for op in done[:self.min_ops] for r in op.res]))

    def report(self, done):
        calls = [(r, op.scale) for op in done for r in op.res]
        return {
            "reuse.trials_per_s": (
                self.trials * len(calls) / sum(r["sim_s"] * k for r, k in calls), "1/s"),
            "reuse.exact_per_s": (len(calls) / sum(r["exact_s"] * k for r, k in calls), "1/s"),
        }


class Cli(Workload):
    # Why: argument parsing, matrix load, SHA-256 header and JSON emit (about
    # 2.6 MB per simulate) are measured nowhere else; the count-only simulate
    # output work targets exactly this emit path.
    name = "cli"
    why = "in-process qmac.cli.main on a fixed validate/attack/simulate/demo mix: parse, load, hash and JSON emit"
    stream = 4
    batch = 7  # one cycle: validate x 3 builtins, validate/attack/simulate a file, demo
    min_ops = 14
    EXIT = {"secure_example": 0, "identity": 3, "x_block": 3}
    aliases = {"ops_per_s": "cli.commands_per_s"}
    reference_blocks = (reference.search, reference.emit)
    expect = ("cli.main", "conditions.validate", "adversary.best_message_attack",
              "adversary.no_message_optimal", "adversary.key_distinguishability",
              "adversary.message_attack_sim", "adversary.no_message_attack_sim",
              "protocol.simulate_honest_batch", "linalg.matrix_to_json",
              "protocol.TaggingUnitary")
    absent = ("designer.optimize", "designer.security_score",
              "adversary.simulate_key_reuse", "adversary.reuse_forgery_probability")

    def __init__(self, q, workdir):
        super().__init__(q, workdir)
        self.out = workdir / "report.json"

    def inputs(self, seed):
        rng = _seeds(seed, self.stream)
        for cycle in itertools.count():
            u = haar(4, rng)
            path = self.workdir / f"haar_{cycle}.json"
            path.write_text(json.dumps(matrix_json(u)), encoding="utf-8")
            s = str(int(rng.integers(2**31)))
            for name in BUILTINS:
                u_b = self.q.fixtures.BUILTIN[name]()
                yield {"kind": "validate", "input": name, "u": u_b,
                       "argv": ["validate", "--input", name, "--seed", s]}
            for kind, extra in (("validate", []), ("attack", []),
                                ("simulate", ["--trials", "10000"])):
                yield {"kind": kind, "input": str(path), "u": u,
                       "argv": [kind, "--input", str(path), "--seed", s, *extra]}
            yield {"kind": "demo", "input": "secure_example",
                   "u": self.q.fixtures.BUILTIN["secure_example"](),
                   "argv": ["demo", "--seed", s]}

    def warmup(self):
        self.op({"argv": ["validate", "--input", "secure_example", "--budget", "200"]})

    def op(self, inp):
        with contextlib.redirect_stderr(io.StringIO()):
            code = self.q.cli.main([*inp["argv"], "--out", str(self.out)])
        return {"code": code, "bytes": self.out.read_bytes()}

    def check(self, inp, res):
        kind, u, code = inp["kind"], inp["u"], res["code"]
        body = json.loads(res["bytes"])
        out = []
        if kind == "validate":
            report = body["report"]
            want = self.EXIT.get(inp["input"], 0 if report["overall_secure"] else 3)
            if code != want or (code == 0) != report["overall_secure"]:
                out.append(f"validate {inp['input']}: exit {code}, expected {want}")
            out += _close(report["advisory"]["no_message_pf_optimal"],
                          no_message_oracle(u), "no-message optimum")
        elif kind == "attack":
            nm, msg = body["attacks"]["no_message"], body["attacks"]["message"]
            if code != 0:
                out.append(f"attack: exit {code}")
            out += _close(nm["probability"], no_message_oracle(u), "no-message optimum")
            out += _close(substitution_pf(u, matrix_of_json(msg["strategy"])),
                          msg["probability"], "re-evaluated strategy pf")
        elif kind == "simulate":
            summary = body["summary"]
            if code != 0 or len(body["records"]) != 2 * summary["trials_per_message"]:
                out.append(f"simulate: exit {code}, {len(body['records'])} records")
            if summary["acceptance_rate"] != 1.0 or summary["decode_accuracy"] != 1.0:
                out.append(f"honest rounds not all accepted and decoded: {summary}")
        elif code != 0 or not body["report"]["overall_secure"]:
            out.append(f"demo: exit {code}")
        return out

    def verify(self, done):
        # The same command with the same seed must give a byte-identical report.
        out = {}
        for i, (inp, res, *_) in enumerate(done[:self.batch]):
            again = self.op(inp)
            out[i] = [] if again["bytes"] == res["bytes"] else [
                f"{' '.join(inp['argv'])}: repeated report differs"]
        return out

    def _message_pfs(self, done):
        for inp, res, *_ in done:
            body = json.loads(res["bytes"])
            if inp["kind"] == "attack":
                yield body["attacks"]["message"]["probability"]
            elif inp["kind"] in ("validate", "demo"):
                yield body["report"]["advisory"]["message_attack_pf_best"]

    def quality(self, done):
        # Mean searched substitution pf over the reports of the leading cycles.
        return float(np.mean(list(self._message_pfs(done[:self.min_ops]))))

    def report(self, done):
        out = {}
        for kind in ("validate", "attack", "simulate", "demo"):
            ops = [op for op in done if op.inp["kind"] == kind]
            out[f"cli.{kind}_ms"] = (1e3 * float(np.median([op.seconds for op in ops])), "ms")
            sizes = [len(op.res["bytes"]) for op in ops]
            out[f"cli.report_bytes.{kind}"] = (float(np.mean(sizes)), "B")
        return out


WORKLOADS = {w.name: w for w in (Audit, Design, Reuse, Cli)}
