"""The serve wire/journal protocol: specs, the state machine, journals."""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.serve.protocol import (
    JOB_SCHEMA,
    JOB_TARGETS,
    TERMINAL_STATES,
    Job,
    JobSpec,
    JobState,
    ServeConfig,
    clear_journal,
    load_journal,
    write_journal,
)


class TestTargets:
    def test_targets_pin_the_cli_sweeps(self):
        # JOB_TARGETS duplicates repro.cli.SWEEP_TARGETS so importing
        # the protocol never drags in the analysis stack; this pin
        # catches the two drifting apart.
        from repro.cli import SWEEP_TARGETS

        assert JOB_TARGETS == ("demo",) + SWEEP_TARGETS


class TestJobSpec:
    def test_defaults_round_trip_through_payload(self):
        spec = JobSpec(target="fig5")
        assert JobSpec.from_payload(spec.as_dict()) == spec

    def test_demo_round_trip_keeps_grid_shape(self):
        spec = JobSpec(target="demo", points=3, draws=64, sleep_s=0.1,
                       deadline_s=5.0, workers=2)
        doc = spec.as_dict()
        assert doc["points"] == 3 and doc["sleep_s"] == 0.1
        assert JobSpec.from_payload(doc) == spec

    def test_figure_spec_omits_demo_fields(self):
        doc = JobSpec(target="fig5").as_dict()
        assert "points" not in doc and "draws" not in doc

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec(target="fig99")

    def test_unknown_payload_key_rejected(self):
        with pytest.raises(ConfigurationError, match="deadine_s"):
            JobSpec.from_payload({"target": "demo", "deadine_s": 5})

    def test_payload_needs_target(self):
        with pytest.raises(ConfigurationError, match="target"):
            JobSpec.from_payload({"points": 4})

    def test_payload_must_be_object(self):
        with pytest.raises(ConfigurationError):
            JobSpec.from_payload(["demo"])

    def test_malformed_numeric_field(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            JobSpec.from_payload({"target": "demo", "draws": "many"})

    @pytest.mark.parametrize("bad", [
        {"seed": -1},
        {"workers": 0},
        {"deadline_s": -1.0},
        {"point_timeout_s": 0},
        {"retries": -1},
        {"points": 0},
        {"points": 5000},
        {"draws": 0},
        {"sleep_s": -0.1},
        {"mode": "chaotic"},
    ])
    def test_envelope_validation(self, bad):
        with pytest.raises(ConfigurationError):
            JobSpec(target="demo", **bad)

    def test_chaos_plan_validated_at_submission(self):
        JobSpec(target="demo", chaos={"transient_prob": 0.5})
        with pytest.raises(ConfigurationError, match="chaos"):
            JobSpec(target="demo", chaos={"transient_probb": 0.5})


class TestStateMachine:
    def _job(self, state=JobState.QUEUED):
        return Job(id="demo-000000", seq=0, spec=JobSpec(target="demo"),
                   state=state)

    def test_happy_path(self):
        job = self._job()
        job.transition(JobState.RUNNING)
        job.transition(JobState.DONE, "completed")
        assert job.terminal and not job.active
        assert job.reason == "completed"

    def test_recovery_edge_running_back_to_queued(self):
        job = self._job(JobState.RUNNING)
        job.transition(JobState.QUEUED, "recovered after crash")
        assert job.state is JobState.QUEUED

    def test_terminal_states_are_absorbing(self):
        for state in TERMINAL_STATES:
            job = self._job(state)
            with pytest.raises(ConfigurationError, match="illegal"):
                job.transition(JobState.RUNNING)

    def test_queued_cannot_jump_to_done(self):
        with pytest.raises(ConfigurationError, match="illegal"):
            self._job().transition(JobState.DONE)

    def test_self_transition_is_a_noop(self):
        job = self._job()
        job.transition(JobState.QUEUED)
        assert job.state is JobState.QUEUED

    def test_emit_sequences_events(self):
        job = self._job()
        job.emit({"event": "queued"})
        job.emit({"event": "running"})
        assert [e["seq"] for e in job.events] == [0, 1]


class TestJournal:
    def _job(self, job_id="demo-000007", seq=7):
        job = Job(id=job_id, seq=seq, spec=JobSpec(target="demo", points=2),
                  state=JobState.RUNNING, done=1, total=2)
        return job

    def test_round_trip(self, tmp_path):
        directory = str(tmp_path)
        write_journal(directory, self._job())
        (job,) = load_journal(directory)
        assert job.id == "demo-000007"
        assert job.state is JobState.RUNNING
        assert (job.done, job.total) == (1, 2)
        assert job.spec.points == 2

    def test_journal_document_carries_schema(self, tmp_path):
        path = write_journal(str(tmp_path), self._job())
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["schema"] == JOB_SCHEMA

    def test_sorted_by_submission_seq(self, tmp_path):
        directory = str(tmp_path)
        write_journal(directory, self._job("z-000009", seq=9))
        write_journal(directory, self._job("a-000001", seq=1))
        assert [job.seq for job in load_journal(directory)] == [1, 9]

    def test_corrupt_documents_demote_to_skip(self, tmp_path):
        directory = str(tmp_path)
        write_journal(directory, self._job())
        with open(os.path.join(directory, "torn.json"), "w") as fh:
            fh.write('{"schema": "repro.job/v1", "id":')
        with open(os.path.join(directory, "foreign.json"), "w") as fh:
            json.dump({"schema": "other/v1", "id": "x"}, fh)
        with open(os.path.join(directory, "badspec.json"), "w") as fh:
            json.dump({"schema": JOB_SCHEMA, "id": "x", "seq": 0,
                       "state": "queued",
                       "spec": {"target": "fig99"}}, fh)
        jobs = load_journal(directory)
        assert [job.id for job in jobs] == ["demo-000007"]

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_journal(str(tmp_path / "nope")) == []

    def test_clear(self, tmp_path):
        directory = str(tmp_path)
        write_journal(directory, self._job())
        assert clear_journal(directory, "demo-000007")
        assert not clear_journal(directory, "demo-000007")
        assert load_journal(directory) == []


class TestServeConfig:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.port == 8023
        assert config.table_limit >= config.max_running + config.queue_depth

    @pytest.mark.parametrize("bad", [
        {"port": -1},
        {"port": 70000},
        {"workers": 0},
        {"max_running": 0},
        {"queue_depth": 0},
        {"rate_per_s": 0},
        {"table_limit": 1},
        {"default_deadline_s": -1},
        {"drain_budget_s": 0},
        {"request_timeout_s": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            ServeConfig(**bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", [
        "rate_per_s", "burst", "default_deadline_s", "drain_budget_s",
        "request_timeout_s",
    ])
    def test_non_finite_values_rejected(self, field, value):
        settings = {"rate_per_s": 5.0} if field == "burst" else {}
        with pytest.raises(ConfigurationError, match=field):
            ServeConfig(**{**settings, field: value})

    @pytest.mark.parametrize("burst", [0.0, -1.0])
    def test_non_positive_burst_rejected(self, burst):
        with pytest.raises(ConfigurationError, match="burst"):
            ServeConfig(rate_per_s=5.0, burst=burst)

    def test_zero_deadline_still_means_none(self):
        assert ServeConfig(default_deadline_s=0.0).default_deadline_s == 0.0
