"""Smoke tests: the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestCli:
    def test_fig1(self, capsys):
        out = run_cli(capsys, "fig1", "--seed", "3")
        assert "Figure 1" in out
        assert "wordpress" in out

    def test_fig7(self, capsys):
        out = run_cli(capsys, "fig7", "--requests", "2")
        assert "Figure 7" in out
        assert "512" in out

    def test_fig14(self, capsys):
        out = run_cli(capsys, "fig14", "--requests", "2")
        assert "Figure 14" in out
        assert "average" in out

    def test_fig15(self, capsys):
        out = run_cli(capsys, "fig15", "--requests", "2")
        assert "regex accel" in out

    def test_energy(self, capsys):
        out = run_cli(capsys, "energy", "--requests", "2")
        assert "energy saving" in out

    def test_area(self, capsys):
        out = run_cli(capsys, "area")
        assert "hash-table" in out
        assert "TOTAL" in out

    def test_fig12(self, capsys):
        out = run_cli(capsys, "fig12", "--requests", "2")
        assert "Figure 12" in out

    def test_ablation(self, capsys):
        out = run_cli(capsys, "ablation", "--requests", "2")
        assert "GET-only" in out

    def test_fleet_smoke(self, capsys):
        out = run_cli(capsys, "fleet", "--smoke", "--requests", "2")
        assert "Fleet:" in out
        assert "accel-4" in out
        assert "accel-4-nocache" in out
        assert "accel-4+storm" in out
        assert "p2c" in out

    def test_fleet_smoke_is_deterministic(self, capsys):
        a = run_cli(capsys, "fleet", "--smoke", "--requests", "2",
                    "--seed", "11")
        b = run_cli(capsys, "fleet", "--smoke", "--requests", "2",
                    "--seed", "11")
        assert a == b

    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["make-coffee"])

    def test_serve_unknown_backend_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--backend", "bulk"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "serve: unknown backend 'bulk'; registered: optimized, "
            "reference\n"
        )
