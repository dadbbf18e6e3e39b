"""End-to-end tests of the command-line interface."""

import pytest

from repro.cli import _parse_predicate, build_parser, main


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "graph.json"
    exit_code = main(
        ["generate", "--kind", "pokec", "--users", "120", "--seed", "3", "--out", str(path)]
    )
    assert exit_code == 0
    return path


class TestParsing:
    def test_parse_predicate(self):
        predicate = _parse_predicate("user:like_book:personal development")
        assert predicate.label("x") == "user"
        assert predicate.label("y") == "personal development"
        assert predicate.edges()[0].label == "like_book"

    def test_parse_predicate_rejects_malformed(self):
        with pytest.raises(Exception):
            _parse_predicate("user:like_book")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_generate_writes_json(self, graph_file):
        assert graph_file.exists()
        assert '"label": "user"' in graph_file.read_text()

    def test_generate_synthetic(self, tmp_path):
        out = tmp_path / "syn.json"
        assert main(["generate", "--kind", "synthetic", "--users", "50", "--out", str(out)]) == 0
        assert out.exists()

    def test_mine_prints_rules(self, graph_file, capsys):
        exit_code = main(
            [
                "mine", str(graph_file),
                "--predicate", "user:like_book:personal development",
                "-k", "2", "-d", "1", "--sigma", "4", "--workers", "2", "--max-edges", "1",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "F(Lk)" in output
        assert "=> like_book(x, y)" in output

    def test_identify_prints_summary(self, graph_file, capsys):
        exit_code = main(
            [
                "identify", str(graph_file),
                "--predicate", "user:like_book:personal development",
                "--rules", "3", "--eta", "1.0", "--workers", "2", "--max-edges", "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "potential customers" in output
        assert "first identified entities" in output

    def test_dmine_alias_with_process_backend(self, graph_file, capsys):
        exit_code = main(
            [
                "dmine", str(graph_file),
                "--predicate", "user:like_book:personal development",
                "-k", "2", "-d", "1", "--sigma", "4", "--workers", "2", "--max-edges", "1",
                "--backend", "processes", "--pool-size", "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "backend=processes" in output
        assert "F(Lk)" in output

    def test_match_alias_with_thread_backend(self, graph_file, capsys):
        # Named for the retired thread backend; the alias now runs on processes.
        exit_code = main(
            [
                "match", str(graph_file),
                "--predicate", "user:like_book:personal development",
                "--rules", "3", "--workers", "2", "--backend", "processes",
            ]
        )
        assert exit_code == 0
        assert "potential customers" in capsys.readouterr().out

    def test_backend_choice_is_validated(self, graph_file):
        for command, backend in (("mine", "gpu"), ("identify", "threads")):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [
                        command, str(graph_file),
                        "--predicate", "user:like_book:personal development",
                        "--backend", backend,
                    ]
                )

    @pytest.mark.parametrize("structure", ["index", "columnar", "incremental"])
    @pytest.mark.parametrize("command", ["mine", "identify", "stream"])
    def test_retired_implementation_switches_are_rejected(
        self, graph_file, command, structure
    ):
        """One matching path: the per-structure off switches no longer parse."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    command, str(graph_file),
                    "--predicate", "user:like_book:personal development",
                    f"--no-{structure}",
                ]
            )

    def test_stream_maintains_and_verifies(self, graph_file, capsys):
        exit_code = main(
            [
                "stream", str(graph_file),
                "--predicate", "user:like_book:personal development",
                "--rules", "3",
                "--eta", "0.5",
                "--updates", "2",
                "--batch-size", "5",
                "--max-edges", "2",
                "--verify",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "streaming match over" in captured
        assert "identical]" in captured
        assert "repair wall over 2 batches" in captured

    def test_stream_save_state_writes_a_restorable_core(self, graph_file, tmp_path, capsys):
        from repro import api

        state = tmp_path / "run.pkl"
        exit_code = main(
            [
                "stream", str(graph_file),
                "--predicate", "user:like_book:personal development",
                "--rules", "3",
                "--eta", "0.5",
                "--updates", "1",
                "--batch-size", "5",
                "--max-edges", "2",
                "--save-state", str(state),
            ]
        )
        assert exit_code == 0 and f"saved stream state to {state}" in capsys.readouterr().out
        with api.restore_core(state) as core:
            (session,) = core.sessions.values()
            assert len(session.rules) == 3
            assert session.result.identified == session.recompute().identified
