"""Tests for repro.utils.blas: one BLAS thread per pipeline process."""

import logging

import pytest

from repro.utils import blas
from repro.utils.blas import (
    blas_pools,
    blas_thread_counts,
    pin_single_blas_thread,
    single_blas_thread,
)

counts = blas_thread_counts


def test_fixture_spreads_counts(blas_spread):
    # the fixture's counts took, so the tests below start away from 1
    assert counts() == blas_spread
    assert all(n >= 2 for n in blas_spread.values())


def test_pools_are_distinct_libraries(blas_spread):
    pools = blas_pools()
    assert len({p.path for p in pools}) == len(pools)
    assert all("openblas" in p.path.lower() for p in pools)


class TestSingleBlasThread:
    def test_every_pool_at_one_thread_inside(self, blas_spread):
        with single_blas_thread():
            assert counts() == dict.fromkeys(blas_spread, 1)

    def test_exact_prior_counts_restored(self, blas_spread):
        with single_blas_thread():
            pass
        assert counts() == blas_spread

    def test_restored_when_body_raises(self, blas_spread):
        with pytest.raises(RuntimeError, match="boom"), single_blas_thread():
            raise RuntimeError("boom")
        assert counts() == blas_spread

    def test_nested(self, blas_spread):
        with single_blas_thread():
            with single_blas_thread():
                assert counts() == dict.fromkeys(blas_spread, 1)
            # the inner exit must not restore under a live outer entry
            assert counts() == dict.fromkeys(blas_spread, 1)
        assert counts() == blas_spread

    def test_nested_inner_raises(self, blas_spread):
        with single_blas_thread():
            with pytest.raises(ValueError), single_blas_thread():
                raise ValueError
            assert counts() == dict.fromkeys(blas_spread, 1)
        assert counts() == blas_spread

    def test_overlapping_entries_restore_on_last_exit(self, blas_spread):
        # entries from different threads need not exit in LIFO order
        a, b = single_blas_thread(), single_blas_thread()
        a.__enter__()
        b.__enter__()
        a.__exit__(None, None, None)
        assert counts() == dict.fromkeys(blas_spread, 1)
        b.__exit__(None, None, None)
        assert counts() == blas_spread

    def test_decorator(self, blas_spread):
        @single_blas_thread()
        def body():
            return counts()

        assert body() == dict.fromkeys(blas_spread, 1)
        assert body() == dict.fromkeys(blas_spread, 1)  # reusable
        assert counts() == blas_spread


def test_pin_sets_one_thread_without_restore(blas_spread):
    pin_single_blas_thread()
    assert counts() == dict.fromkeys(blas_spread, 1)


class TestNothingToControl:
    @pytest.fixture
    def no_pools(self, monkeypatch):
        monkeypatch.setattr(blas, "blas_pools", list)
        monkeypatch.setattr(blas, "_reported_none", False)

    def test_does_nothing_and_logs_once(self, blas_spread, monkeypatch, caplog):
        pools = blas_pools()  # the real ones, read past the patch below
        monkeypatch.setattr(blas, "blas_pools", list)
        monkeypatch.setattr(blas, "_reported_none", False)
        caplog.set_level(logging.INFO, logger=blas.__name__)
        with single_blas_thread():
            assert {p.path: p.get_threads() for p in pools} == blas_spread
        with single_blas_thread():
            pass
        pin_single_blas_thread()
        assert {p.path: p.get_threads() for p in pools} == blas_spread
        records = [r for r in caplog.records if r.name == blas.__name__]
        assert len(records) == 1
        assert "no controllable OpenBLAS" in records[0].getMessage()

    def test_body_still_runs_and_raises(self, no_pools):
        ran = []
        with pytest.raises(KeyError), single_blas_thread():
            ran.append(True)
            raise KeyError
        assert ran == [True]


def test_no_procfs_finds_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_MAPS", "/nonexistent/maps")
    assert blas_pools() == []
