"""The three benchmark workloads, driven through public APIs only.

Each workload is a closed loop with one client.  ``setup`` runs before the
first op (its time is part of ``setup_s``); ``first_op`` is op 0;
``prepare_loop`` builds the timed loop's inputs, untimed; ``op(i)`` is one
op of the loop; ``check`` verifies every recorded output afterwards and
returns the positions of the ops whose output is wrong.

Every input is made from the run's seed.  Op 0 is the same for every seed
on ``plan`` and ``verify``, so that ``first_op_s`` measures the cold start
and not which input the seed drew.
"""

from __future__ import annotations

import itertools
import math
import random

#: plan requests: W × max_tp × max_pp × zero_stages × micro_batches
PLAN_WORLD_SIZES = (16, 32, 64, 128)
PLAN_MAX_TP = (None, 8)
PLAN_MAX_PP = (None, 8)
PLAN_ZERO_STAGES = ((0, 1, 3), (1, 3))
PLAN_MICRO_BATCHES = ((1, 2, 4, 8), (2, 4))

#: train_tp2 model: GPT family at this size, float32, batch 4, TP=2
TRAIN_SHAPE = dict(hidden_size=128, num_layers=4, num_heads=4,
                   intermediate_size=512, max_seq_len=64, vocab_size=512)
TRAIN_BATCH = 4
TRAIN_TP = 2
#: distinct seeded batches the training loop cycles through
TRAIN_BATCHES = 8

#: verify: specs per (family, world size) cell of the timed loop
VERIFY_PER_CELL = 12
VERIFY_WORLD_SIZES = (1, 2)
#: op 0 of ``verify``: a fixed GPT world-size-2 spec
VERIFY_FIRST = ("GPT", 2, 0)


def _cluster(world_size: int):
    """The default p3dn cluster for ``world_size`` GPUs (8 per node)."""
    from repro.distributed import p3dn_cluster

    return p3dn_cluster(max(1, -(-int(world_size) // 8)))


class Plan:
    """``PlanService`` queries on the tiny-GPT trace."""

    name = "plan"

    def setup(self, seed: int) -> None:
        import repro.slapo as slapo
        from repro import schedules, sim
        from repro.models import MODEL_ZOO, data

        cls, config = MODEL_ZOO["GPT"]
        config = config.tiny()
        model = cls(config, device="meta")
        sch = slapo.create_schedule(model)
        schedules.schedule_gpt(sch, config, ckpt_ratio=0.0, use_tp=False)
        ids, _ = data.lm_batch(config, 1, device="meta")
        self.traced = (model, sim.trace_model(model, ids))
        self.service = slapo.PlanService(lambda family: self.traced,
                                         cluster_fn=_cluster, max_workers=1)
        self.rng = random.Random(seed)
        self.population = [
            slapo.PlanRequest("GPT", world_size=w, max_tp=tp, max_pp=pp,
                              zero_stages=zero, micro_batches=micro)
            for w, tp, pp, zero, micro in itertools.product(
                PLAN_WORLD_SIZES, PLAN_MAX_TP, PLAN_MAX_PP,
                PLAN_ZERO_STAGES, PLAN_MICRO_BATCHES)]
        self.order: list = []

    def _request(self, i: int):
        if i == 0:
            from repro.slapo import PlanRequest

            return PlanRequest("GPT", world_size=128)
        while len(self.order) < i:  # one seeded permutation per cycle
            cycle = list(self.population)
            self.rng.shuffle(cycle)
            self.order.extend(cycle)
        return self.order[i - 1]

    def first_op(self):
        return self.op(0)

    def prepare_loop(self) -> None:
        pass

    def op(self, i: int):
        request = self._request(i)
        return request, self.service.query(request)

    @staticmethod
    def summary(result) -> dict:
        _, response = result
        return {"config": response.config,
                "throughput": response.throughput}

    def check(self, results: list[tuple]) -> list[int]:
        """Each answer must be the best feasible scalar ``predict_config``
        over the same ``enumerate_space``."""
        oracle: dict = {}
        wrong = []
        for position, _, (request, response) in results:
            if request not in oracle:
                oracle[request] = self._best(request)
            config, throughput = oracle[request]
            if response.config != config or not math.isclose(
                    response.throughput, throughput, rel_tol=1e-9):
                wrong.append(position)
        return wrong

    def _best(self, request) -> tuple:
        from repro.sim import predict_config
        from repro.slapo.tuner import SimCostModel
        from repro.slapo.tuner.space import enumerate_space

        model, trace = self.traced
        cluster = _cluster(request.world_size)
        resolve = SimCostModel.parallel_fn(request.world_size)
        best = (None, 0.0)
        for config in enumerate_space(request.space_fn()):
            prediction = predict_config(
                trace, model, cluster, resolve(config),
                int(config["micro_batch"]),
                zero_stage=int(config["zero_stage"]),
                num_micro_batches=int(config.get("num_micro_batches", 1)))
            if prediction.fits and (best[0] is None
                                    or prediction.throughput > best[1]):
                best = (dict(config), float(prediction.throughput))
        return best

    def close(self) -> None:
        self.service.close()


class TrainTP2:
    """GPT scheduled at TP=2, trained with AdamW on ``LocalCluster(2)``."""

    name = "train_tp2"

    def setup(self, seed: int) -> None:
        import numpy as np

        from repro import framework as fw
        from repro.distributed import LocalCluster
        from repro.framework.functional import cross_entropy
        from repro.models import GPT_2_9B

        self.seed = seed
        self.cross_entropy = cross_entropy
        self.config = GPT_2_9B.tiny(**TRAIN_SHAPE)
        rng = np.random.default_rng(seed)
        seq, vocab = self.config.max_seq_len, self.config.vocab_size
        self.batches = [
            (fw.Tensor(rng.integers(0, vocab, (TRAIN_BATCH, seq))),
             fw.Tensor(rng.integers(0, vocab, (TRAIN_BATCH * seq,))))
            for _ in range(TRAIN_BATCHES)]
        self.cluster = LocalCluster(TRAIN_TP)
        self.ranks: list = [None] * TRAIN_TP
        self.cluster.run(self._build_rank)

    def _build_rank(self, ctx) -> None:
        import repro.slapo as slapo
        from repro import framework as fw, schedules
        from repro.distributed import DeviceMesh, ParallelConfig
        from repro.framework.optim import AdamW
        from repro.models import GPT2LMHeadModel

        fw.manual_seed(self.seed)  # identical weights; each rank shards
        model = GPT2LMHeadModel(self.config)
        mesh = DeviceMesh(ParallelConfig(tp=TRAIN_TP), ctx=ctx)
        sch = slapo.create_schedule(model, mesh=mesh)
        schedules.schedule_gpt(sch, self.config)
        built = slapo.build(sch)
        built.model.train()
        optimizer = AdamW(built.model.parameters(), lr=1e-3)
        self.ranks[ctx.rank] = (built.model, optimizer)

    def first_op(self):
        return self.op(0)

    def prepare_loop(self) -> None:
        pass

    def op(self, i: int) -> tuple:
        """One training step; returns every rank's loss."""
        ids, labels = self.batches[i % TRAIN_BATCHES]
        vocab = self.config.vocab_size
        cross_entropy = self.cross_entropy

        def step(ctx):
            model, optimizer = self.ranks[ctx.rank]
            optimizer.zero_grad()
            logits = model(ids)
            loss = cross_entropy(logits.view(-1, vocab), labels)
            loss.backward()
            optimizer.step()
            return loss.item()

        return tuple(self.cluster.run(step))

    @staticmethod
    def summary(result) -> dict:
        return {"loss": [float(loss).hex() for loss in result]}

    def check(self, results: list[tuple]) -> list[int]:
        """Finite losses, equal on every rank; step 0 matches the
        unscheduled single-rank model within verify's float32 output
        tolerance; and a fresh replica trained from the same seed on the
        same steps reproduces every loss bit for bit, the last included."""
        replica = TrainTP2()
        replica.setup(self.seed)
        reference = self._reference_loss()
        tolerance = _output_tolerance()
        wrong = []
        for position, i, losses in results:
            again = replica.op(i)
            ok = all(math.isfinite(loss) for loss in losses) \
                and len(set(losses)) == 1 and again == losses
            if i == 0:
                ok = ok and abs(losses[0] - reference) <= \
                    tolerance.atol + tolerance.rtol * abs(reference)
            if not ok:
                wrong.append(position)
        return wrong

    def _reference_loss(self) -> float:
        """Step-0 loss of the unscheduled model on one rank."""
        from repro import framework as fw
        from repro.models import GPT2LMHeadModel

        fw.manual_seed(self.seed)
        model = GPT2LMHeadModel(self.config)
        model.train()
        ids, labels = self.batches[0]
        logits = model(ids)
        return self.cross_entropy(logits.view(-1, self.config.vocab_size),
                                  labels).item()

    def close(self) -> None:
        pass


def _output_tolerance():
    from repro.slapo.verify import TolerancePolicy

    return TolerancePolicy.default().for_("output", "float32")


class Verify:
    """``replay`` of seeded ``ScheduleSpec``s over every default family."""

    name = "verify"

    def setup(self, seed: int) -> None:
        from repro.slapo.verify import sample_spec

        self.seed = seed
        family, world_size, spec_seed = VERIFY_FIRST
        self.first = sample_spec(family, world_size, seed=spec_seed)
        self.specs: list = []

    def first_op(self):
        from repro.slapo.verify import replay

        return replay(self.first)

    def prepare_loop(self) -> None:
        """``VERIFY_PER_CELL`` rounds of one spec per (family, world
        size) cell, each round in a seeded order.  The loop cycles
        through them, so any 16 consecutive ops cover every cell once and
        a loop cut off by time keeps the mix of cells the same."""
        import numpy as np

        from repro.slapo.verify import DEFAULT_FAMILIES, sample_spec

        rng = np.random.default_rng(self.seed)
        cells = [(family, ws) for family in DEFAULT_FAMILIES
                 for ws in VERIFY_WORLD_SIZES]
        self.specs = []
        for _ in range(VERIFY_PER_CELL):
            for k in rng.permutation(len(cells)):
                family, ws = cells[k]
                self.specs.append(sample_spec(
                    family, ws, seed=int(rng.integers(2**31))))

    def op(self, i: int):
        from repro.slapo.verify import replay

        return replay(self.specs[(i - 1) % len(self.specs)])

    @staticmethod
    def summary(result) -> dict:
        return {"outputs": result.outputs_checked,
                "grads": result.grads_checked,
                "params": result.params_checked}

    def check(self, results: list[tuple]) -> list[int]:
        """Every replay returns a ``VerifyReport``."""
        from repro.slapo.verify import VerifyReport

        return [position for position, _, report in results
                if not isinstance(report, VerifyReport)]

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (Plan, TrainTP2, Verify)}
