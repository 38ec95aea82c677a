"""Analysis-service tests: wire protocol, quota, jobs, HTTP end-to-end.

The end-to-end sections run a real :class:`BackgroundServer` on an
ephemeral port and talk to it with the stdlib client, asserting the
service's three contracts: results over HTTP are **bit-identical** to
direct in-process calls, concurrent same-fingerprint submissions
**coalesce** onto one estimation, and the SSE stream speaks only the
**documented progress vocabulary** (and shrugs off client disconnects).
"""

import copy
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Component, MonteCarloConfig, StoppingRule, SystemModel
from repro.core.montecarlo import adaptive_chunk_configs
from repro.errors import ConfigurationError
from repro.masking import NestedProfile, PiecewiseProfile, busy_idle_profile
from repro.methods import progress as progress_mod
from repro.service import (
    BackgroundServer,
    JobManager,
    JobSpec,
    QuotaExceeded,
    ServiceClient,
    TrialQuota,
    mc_config_from_dict,
    mc_config_to_dict,
    stopping_rule_from_dict,
    stopping_rule_to_dict,
)
from repro.service.client import ServiceError
from repro.units import SECONDS_PER_DAY

#: Every documented progress-event kind (the SSE vocabulary).
EVENT_KINDS = {
    value
    for name, value in vars(progress_mod).items()
    if name.isupper() and isinstance(value, str)
}


def cluster_space(day_profile, sizes=(2, 8)):
    rate = 2.0 / SECONDS_PER_DAY
    return tuple(
        (
            f"C={c}",
            SystemModel(
                [Component("node", rate, day_profile, multiplicity=c)]
            ),
        )
        for c in sizes
    )


def _valid_job_docs() -> list[dict]:
    """Two well-formed job documents: fixed-count piecewise, adaptive
    nested."""
    day = busy_idle_profile(0.5 * SECONDS_PER_DAY, SECONDS_PER_DAY)
    nested = NestedProfile(
        [
            (2.0, PiecewiseProfile.from_segments([(1.0, 0.5), (0.5, 0.0)])),
            (3.0, 0.25),
        ]
    )
    fixed = JobSpec(
        space=cluster_space(day),
        methods=("sofr_only",),
        mc=MonteCarloConfig(trials=2_000, seed=7, chunks=2),
    )
    adaptive = JobSpec(
        space=(
            ("n", SystemModel([Component("a", 1e-3, nested, multiplicity=3)])),
        ),
        methods=("avf_sofr", "sofr_only"),
        reference="first_principles",
        mc=MonteCarloConfig(
            trials=400, seed=3, chunks=4,
            stopping=StoppingRule(
                target_rel_stderr=0.05, min_trials=100, max_trials=800
            ),
        ),
    )
    return [json.loads(json.dumps(s.to_dict())) for s in (fixed, adaptive)]


_VALID_JOB_DOCS = _valid_job_docs()

#: Bounded integers keep every chunk plan a mutated doc can ask for small.
_INTS = st.integers(min_value=-3, max_value=64)
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    _INTS,
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.none(), _INTS, st.floats()), max_size=4),
    st.dictionaries(st.text(max_size=3), _INTS, max_size=2),
)


def _doc_paths(node, prefix=()) -> list[tuple]:
    """The path of every key and list entry in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths.append((*prefix, key))
        paths += _doc_paths(child, (*prefix, key))
    return paths


@pytest.fixture
def small_spec(day_profile) -> JobSpec:
    return JobSpec(
        space=cluster_space(day_profile),
        methods=("sofr_only",),
        mc=MonteCarloConfig(trials=2_000, seed=7, chunks=2),
    )


@pytest.fixture
def failing_spec() -> JobSpec:
    # Valid at submission time, fails at run time: the arrival sampler
    # cannot terminate on a never-vulnerable (AVF = 0) component.
    dead = PiecewiseProfile.from_segments([(10.0, 0.0), (5.0, 0.0)])
    return JobSpec(
        space=(("dead", SystemModel([Component("z", 1e-5, dead)])),),
        methods=("sofr_only",),
        mc=MonteCarloConfig(trials=500, seed=1, method="arrival"),
    )


class TestJobSpecWire:
    def test_round_trip_preserves_fingerprint(self, small_spec):
        over_wire = json.loads(json.dumps(small_spec.to_dict()))
        rebuilt = JobSpec.from_dict(over_wire)
        assert (
            rebuilt.content_fingerprint == small_spec.content_fingerprint
        )
        assert rebuilt.mc == small_spec.mc

    def test_tenant_does_not_change_fingerprint(self, small_spec):
        relabeled = small_spec.with_tenant("acme")
        assert (
            relabeled.content_fingerprint
            == small_spec.content_fingerprint
        )

    def test_mc_settings_change_fingerprint(self, small_spec, day_profile):
        other = JobSpec(
            space=small_spec.space,
            methods=small_spec.methods,
            mc=MonteCarloConfig(trials=2_000, seed=8, chunks=2),
        )
        assert (
            other.content_fingerprint != small_spec.content_fingerprint
        )

    def test_stopping_rule_round_trip(self):
        rule = StoppingRule(
            target_rel_stderr=0.05, min_trials=500, max_trials=40_000
        )
        rebuilt = stopping_rule_from_dict(
            json.loads(json.dumps(stopping_rule_to_dict(rule)))
        )
        assert rebuilt == rule
        mc = MonteCarloConfig(trials=1_000, stopping=rule)
        assert mc_config_from_dict(mc_config_to_dict(mc)) == mc

    def test_trial_cost_counts_stochastic_estimators(self, day_profile):
        space = cluster_space(day_profile, sizes=(2, 8, 32))
        mc = MonteCarloConfig(trials=1_000)
        # sofr_only + the monte_carlo reference = 2 stochastic runs
        # over 3 points.
        spec = JobSpec(space=space, methods=("sofr_only",), mc=mc)
        assert spec.trial_cost() == 1_000 * 2 * 3
        # A purely deterministic job costs nothing.
        exact = JobSpec(
            space=space,
            methods=("avf_sofr",),
            reference="first_principles",
            mc=mc,
        )
        assert exact.trial_cost() == 0
        # An adaptive rule is billed at its extension ceiling.
        adaptive = JobSpec(
            space=space,
            methods=("sofr_only",),
            mc=MonteCarloConfig(
                trials=1_000,
                stopping=StoppingRule(
                    target_rel_stderr=0.01, max_trials=5_000
                ),
            ),
        )
        assert adaptive.trial_cost() == 5_000 * 2 * 3

    def test_rejects_wrong_schema(self, small_spec):
        data = small_spec.to_dict()
        data["schema"] = "repro.job/v0"
        with pytest.raises(ConfigurationError, match="repro.job/v1"):
            JobSpec.from_dict(data)

    def test_rejects_unknown_method(self, small_spec):
        data = small_spec.to_dict()
        data["methods"] = ["clairvoyance"]
        with pytest.raises(ConfigurationError, match="clairvoyance"):
            JobSpec.from_dict(data)

    def test_rejects_unknown_mc_field(self, small_spec):
        data = small_spec.to_dict()
        data["mc"]["warp_factor"] = 9
        with pytest.raises(ConfigurationError, match="warp_factor"):
            JobSpec.from_dict(data)

    def test_rejects_empty_space(self, small_spec):
        data = small_spec.to_dict()
        data["space"] = []
        with pytest.raises(ConfigurationError, match="space"):
            JobSpec.from_dict(data)

    def test_aliases_resolve_at_submission(self, day_profile):
        spec = JobSpec(
            space=cluster_space(day_profile),
            methods=("exact",),
            reference="mc",
        )
        assert spec.methods == ("first_principles",)
        assert spec.reference == "monte_carlo"

    @pytest.mark.parametrize(
        "path, value",
        [
            (("space", 0, "system"), 5),
            (("space", 0, "system", "components", 0), 5),
            (("space", 0, "system", "components", 0, "rate_per_second"),
             None),
            (("space", 0, "system", "components", 0, "rate_per_second"),
             "x"),
            (("space", 0, "system", "components", 0, "multiplicity"), None),
            (("space", 0, "system", "components", 0, "multiplicity"), "x"),
            (("space", 0, "system", "components", 0, "multiplicity"), 1.5),
            (("mc",), 5),
            (("mc", "trials"), 1.5),
            (("mc", "trials"), True),
            (("mc", "chunks"), 2.5),
            (("mc", "seed"), "x"),
            (("mc", "seed"), -1),
            (("reference",), "clairvoyance"),
        ],
    )
    def test_malformed_fields_are_refused_at_submission(
        self, small_spec, path, value
    ):
        data = json.loads(json.dumps(small_spec.to_dict()))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ConfigurationError):
            JobSpec.from_dict(data)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_property_mutated_docs_are_refused_or_runnable(self, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(_VALID_JOB_DOCS)))
        path = data.draw(st.sampled_from(_doc_paths(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JUNK)
        try:
            spec = JobSpec.from_dict(doc)
        except ConfigurationError:
            return
        # Whatever got through can run: its chunk plan and RNGs build.
        np.random.default_rng(spec.mc.seed)
        for chunk in adaptive_chunk_configs(spec.mc):
            np.random.default_rng(chunk.seed)


class TestTrialQuota:
    def test_unmetered_admits_everything(self):
        quota = TrialQuota()
        decision = quota.charge("t1", 10**9)
        assert decision.admitted

    def test_single_tenant_owns_the_pool(self):
        quota = TrialQuota(pool=10_000)
        assert quota.charge("solo", 10_000).admitted
        with pytest.raises(QuotaExceeded):
            quota.charge("solo", 1)

    def test_pool_splits_fairly_across_tenants(self):
        quota = TrialQuota(pool=10_000, unit=100)
        quota.charge("a", 4_000)
        # b's arrival halves the shares: a has spent 4000 of its 5000,
        # b gets its own 5000.
        assert quota.charge("b", 5_000).admitted
        with pytest.raises(QuotaExceeded) as denied:
            quota.charge("a", 2_000)
        assert denied.value.decision.share == 5_000
        assert quota.charge("a", 1_000).admitted

    def test_refund_restores_headroom(self):
        quota = TrialQuota(pool=1_000)
        quota.charge("t", 1_000)
        quota.refund("t", 1_000)
        assert quota.charge("t", 800).admitted

    def test_decisions_are_deterministic(self):
        def replay():
            quota = TrialQuota(pool=9_999, unit=7)
            log = []
            for tenant, ask in [
                ("a", 3_000), ("b", 2_000), ("a", 2_500),
                ("c", 4_000), ("b", 1_000),
            ]:
                try:
                    log.append(quota.charge(tenant, ask).to_dict())
                except QuotaExceeded as error:
                    log.append(error.decision.to_dict())
            return log

        assert replay() == replay()

    def test_snapshot_reports_spend_and_shares(self):
        quota = TrialQuota(pool=8_000, unit=10)
        quota.charge("a", 1_500)
        snap = quota.snapshot()
        assert snap["pool"] == 8_000
        assert snap["tenants"]["a"]["spent"] == 1_500


class TestJobManager:
    def test_duplicate_submission_coalesces(self, small_spec):
        manager = JobManager(workers=1)
        try:
            job1, coalesced1 = manager.submit(small_spec)
            job2, coalesced2 = manager.submit(
                small_spec.with_tenant("other")
            )
            assert (coalesced1, coalesced2) == (False, True)
            assert job1 is job2
            assert job1.coalesced == 1
            assert job1.tenants == ["default", "other"]
            assert job1.wait(timeout=60)
            assert job1.state == "done"
            snapshot = manager.fleet_snapshot()
            assert snapshot["submissions"] == 2
            assert snapshot["coalesced"] == 1
        finally:
            manager.close()

    def test_coalesced_submission_is_not_billed(self, small_spec):
        quota = TrialQuota(pool=small_spec.trial_cost())
        manager = JobManager(workers=1, quota=quota)
        try:
            manager.submit(small_spec)
            # The pool is fully committed; only dedup lets this pass.
            job, coalesced = manager.submit(small_spec)
            assert coalesced
            assert quota.snapshot()["tenants"]["default"]["spent"] == (
                small_spec.trial_cost()
            )
        finally:
            manager.close()

    def test_failed_job_refunds_and_allows_retry(self, failing_spec):
        quota = TrialQuota(pool=failing_spec.trial_cost())
        manager = JobManager(workers=1, quota=quota)
        try:
            job, _ = manager.submit(failing_spec)
            assert job.wait(timeout=60)
            assert job.state == "failed"
            assert "EstimationError" in job.error
            assert quota.snapshot()["tenants"]["default"]["spent"] == 0
            # A failed job is not a coalesce target: the retry is a
            # fresh job (and the refund funds it).
            retry, coalesced = manager.submit(failing_spec)
            assert not coalesced
            assert retry.id != job.id
        finally:
            manager.close()

    def test_events_are_buffered_for_late_listeners(self, small_spec):
        manager = JobManager(workers=1)
        try:
            job, _ = manager.submit(small_spec)
            assert job.wait(timeout=60)
            # Attach after completion: the full history replays.
            events, cursor, finished = job.next_events(0, timeout=0.1)
            assert finished
            kinds = [e["kind"] for e in events]
            assert kinds.count("point-start") == len(small_spec.space)
            assert kinds.count("point-done") == len(small_spec.space)
            assert set(kinds) <= EVENT_KINDS
            # And the cursor protocol terminates cleanly.
            more, _, finished = job.next_events(cursor, timeout=0.1)
            assert more == [] and finished
        finally:
            manager.close()


class TestServeStartup:
    """Bad engine knobs refuse the server before it starts serving."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--engine-workers", "0"],
             "workers must be a positive integer, got 0"),
            (["--executor", "remote"], "invalid choice: 'remote'"),
        ],
        ids=["zero-engine-workers", "remote-executor"],
    )
    def test_refused_before_serving(self, argv, message, monkeypatch, capsys):
        from repro.service import server as server_mod

        def serve(coroutine):
            coroutine.close()
            raise AssertionError("repro-serve started serving")

        monkeypatch.setattr(server_mod.asyncio, "run", serve)
        with pytest.raises(SystemExit) as exited:
            server_mod.main(["--port", "0", *argv])
        assert exited.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "knobs",
        [{"engine_workers": 0}, {"engine_executor": "remote"}],
        ids=["zero-engine-workers", "remote-executor"],
    )
    def test_job_manager_refuses_bad_engine_knobs(self, knobs):
        with pytest.raises(ConfigurationError):
            JobManager(workers=1, **knobs).close()


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(workers=2) as background:
        yield background


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.address)


@pytest.fixture(scope="module")
def module_spec():
    profile = busy_idle_profile(0.5 * SECONDS_PER_DAY, SECONDS_PER_DAY)
    return JobSpec(
        space=cluster_space(profile, sizes=(2, 8, 32)),
        methods=("sofr_only", "avf_sofr"),
        mc=MonteCarloConfig(trials=2_000, seed=11, chunks=2),
    )


class TestHttpEndToEnd:
    def test_health(self, client):
        assert client.health() == {"status": "ok"}

    def test_served_result_is_bit_identical_to_direct(
        self, client, module_spec
    ):
        direct = module_spec.run()
        submitted = client.submit(module_spec)
        payload = client.wait(submitted["job"]["id"])
        served_bytes = json.dumps(payload["result"], sort_keys=True)
        direct_bytes = json.dumps(direct.to_dict(), sort_keys=True)
        assert served_bytes == direct_bytes
        # And the rebuilt ResultSet is semantically identical too.
        assert client.result(submitted["job"]["id"]).to_dict() == (
            direct.to_dict()
        )

    def test_concurrent_duplicates_coalesce(self, client, day_profile):
        spec = JobSpec(
            space=cluster_space(day_profile, sizes=(4,)),
            methods=("sofr_only",),
            mc=MonteCarloConfig(trials=3_000, seed=23, chunks=3),
        )
        results = []

        def submit():
            results.append(client.submit(spec))

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = {r["job"]["id"] for r in results}
        assert len(ids) == 1, "duplicates must share one job"
        assert sum(r["coalesced"] for r in results) == 3
        final = client.wait(ids.pop())
        assert final["job"]["coalesced"] == 3

    def test_sse_stream_speaks_only_the_documented_vocabulary(
        self, client, module_spec
    ):
        submitted = client.submit(module_spec)  # coalesces or replays
        events = list(client.events(submitted["job"]["id"]))
        names = [name for name, _ in events]
        assert names[-1] == "done"
        progress_events = [p for n, p in events if n == "progress"]
        assert progress_events, "stream must carry progress events"
        assert {p["kind"] for p in progress_events} <= EVENT_KINDS
        # Every payload decodes as a documented ProgressEvent.
        for payload in progress_events:
            progress_mod.ProgressEvent.from_dict(payload)
        done = events[-1][1]
        assert done["state"] == "done"

    def test_client_disconnect_does_not_kill_the_job(
        self, client, day_profile
    ):
        spec = JobSpec(
            space=cluster_space(day_profile, sizes=(2, 4, 8, 16)),
            methods=("sofr_only",),
            mc=MonteCarloConfig(trials=4_000, seed=31, chunks=4),
        )
        submitted = client.submit(spec)
        job_id = submitted["job"]["id"]
        stream = client.events(job_id)
        next(stream)  # the stream is live...
        stream.close()  # ...and now the client walks away.
        payload = client.wait(job_id, timeout=120)
        assert payload["job"]["state"] == "done"
        # A fresh listener still gets the full replay afterwards.
        names = [name for name, _ in client.events(job_id)]
        assert names[-1] == "done"

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as error:
            client.job("job-999999")
        assert error.value.status == 404
        with pytest.raises(ServiceError) as error:
            list(client.events("job-999999"))
        assert error.value.status == 404

    def test_bad_spec_is_400(self, client):
        with pytest.raises(ServiceError) as error:
            client.submit({"schema": "repro.job/v1", "space": []})
        assert error.value.status == 400

    def test_non_dict_system_is_400(self, client, module_spec):
        data = module_spec.to_dict()
        data["space"][0]["system"] = 5
        with pytest.raises(ServiceError) as error:
            client.submit(data)
        assert error.value.status == 400

    def test_non_json_body_is_400(self, server):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.address + "/v1/jobs",
            data=b"not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request, timeout=10)
        assert error.value.code == 400

    def test_wrong_method_is_405(self, client, server):
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(
                server.address + "/v1/jobs", timeout=10
            )
        assert error.value.code == 405

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as error:
            client._request("GET", "/v2/everything")
        assert error.value.status == 404

    def test_fleet_snapshot_shape(self, client):
        snap = client.fleet()
        assert set(snap) >= {
            "workers", "engine", "jobs", "submissions", "coalesced",
            "cache", "quota",
        }
        assert snap["submissions"] >= snap["coalesced"]
        assert set(snap["jobs"]) == {
            "queued", "running", "done", "failed",
        }

    def test_failed_job_surfaces_over_http(self, client, failing_spec):
        submitted = client.submit(failing_spec)
        with pytest.raises(ServiceError) as error:
            client.wait(submitted["job"]["id"], timeout=60)
        assert error.value.status == 500
        assert "EstimationError" in str(error.value)


class TestHttpQuota:
    def test_quota_denial_is_429_with_decision(self, day_profile):
        spec = JobSpec(
            space=cluster_space(day_profile, sizes=(2,)),
            methods=("sofr_only",),
            mc=MonteCarloConfig(trials=1_000, seed=3),
        )
        # Pool covers exactly one submission's 2000-trial cost.
        with BackgroundServer(
            workers=1, quota_trials=spec.trial_cost()
        ) as background:
            client = ServiceClient(background.address, tenant="acme")
            first = client.submit(spec)
            assert not first["coalesced"]
            # Different seed = different fingerprint: no dedup rescue,
            # and acme's pool is exhausted.
            other = JobSpec(
                space=spec.space,
                methods=spec.methods,
                mc=MonteCarloConfig(trials=1_000, seed=4),
            )
            with pytest.raises(ServiceError) as denied:
                client.submit(other)
            assert denied.value.status == 429
            decision = denied.value.payload["quota"]
            assert decision["tenant"] == "acme"
            assert not decision["admitted"]
            # The duplicate still coalesces free of charge.
            again = client.submit(spec)
            assert again["coalesced"]
            client.wait(first["job"]["id"])
