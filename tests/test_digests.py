"""Pinned sha256 digests of the six exported CSVs for three seeded scenarios.

A change that moves any digest changes simulation output.  Such a change must
be deliberate: re-pin the digests in the same commit and say why in
CHANGES.md.  A pure refactor or speed-up must leave every digest unchanged.
"""
from __future__ import annotations

import hashlib

import pytest

from gridcity.engine import SimConfig, run
from gridcity.environment import GridMap, LayoutSpec, generate_layout
from gridcity.metrics import export_run
from helpers import parking_2x2


def _city() -> GridMap:
    return generate_layout(LayoutSpec(blocks_x=5, blocks_y=5))


def _blocks_2x2() -> GridMap:
    return generate_layout(LayoutSpec(blocks_x=2, blocks_y=2))


SCENARIOS = {
    "city_200w_100d": (
        _city,
        SimConfig(steps=60, walkers=200, drivers=100, obstruction=0.05,
                  walker_w=(1, 3), driver_w=(1, 5), seed=7),
        {
            "events.csv": "fe7cb2b2cd42c38b1f20464e551ded53ee1c8e106bf3d5e332f9ca7bf2f97bb6",
            "heatmap_driver_occupancy.csv": "0b080bacc9a201f3112dd97b796c24dd3a9cd44457a5d1a56fa5aac035907438",
            "heatmap_driver_speed.csv": "9d2ed6621040921b4fee1cc3a593502981e5579e217a4d5f6e940063c803ea42",
            "heatmap_jaywalk.csv": "a033d5e55950d32cc3c3ad3625fda2a33d2483821d767f03a6909258598d3b08",
            "heatmap_walker_occupancy.csv": "d18aedbd82cdf4ab74903f7b6c28a235e1d538a77faa434d75ab04e0d6419272",
            "metrics.csv": "bc86a1cca8128deb969d71bc21d9fd30223c3febf3cfdc167329ec4a785a75c2",
        },
    ),
    "jam_70d": (
        _blocks_2x2,
        SimConfig(steps=150, drivers=70, seed=1),
        {
            "events.csv": "3d0ee4d5431f415f57e6cec514d40b14cc85c52bb07f8503625a4a2913bd3de4",
            "heatmap_driver_occupancy.csv": "c4d390eead79ea371c6cc4a4ac905c513388f9ad0ae57ee6c448c0fa414decb1",
            "heatmap_driver_speed.csv": "9ef296bcbf3ba8b1efef945c412cc752e0a264e783b91edfe933e9aef4172f4b",
            "heatmap_jaywalk.csv": "7a90ccbec160480aae49dfff30e7f18bc478b7e4adfca6c0c602541ee9dd6f3c",
            "heatmap_walker_occupancy.csv": "7a90ccbec160480aae49dfff30e7f18bc478b7e4adfca6c0c602541ee9dd6f3c",
            "metrics.csv": "b363cc8b2840b4ea215a6e581f66d6e4e6adeda45f5162b7271e35a1b0871e1f",
        },
    ),
    # wider sensing rings, parked and reactivated drivers as inactive blockers
    "parking_wide_rings": (
        parking_2x2,
        SimConfig(steps=200, walkers=40, drivers=20, sense_radius=1.6,
                  yield_radius=2.5, reactivation_prob=0.05, seed=1),
        {
            "events.csv": "6305bdd8a4db4eb5a48cc5ceaddb0bd43068183d34589e901541423e3c43f7a3",
            "heatmap_driver_occupancy.csv": "2bf47fa7bb95dbc5b2832e270337c57923c6147c2a75b5aac628338ca6022af2",
            "heatmap_driver_speed.csv": "0f953931bd08467b3de465619bb19a0814782a392586d5d7b37273a8b882b5e5",
            "heatmap_jaywalk.csv": "7a90ccbec160480aae49dfff30e7f18bc478b7e4adfca6c0c602541ee9dd6f3c",
            "heatmap_walker_occupancy.csv": "22e2dbb4e0568e375cec43a039df53793e7a50a60c7143b48b64179c00d2b0c2",
            "metrics.csv": "60529adead2e6234c5d6316f9fc97bbb75eb0a21508a60dcdfc9d1ed89ea3139",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_exported_csv_digests_are_pinned(name, tmp_path):
    make_grid, config, expected = SCENARIOS[name]
    paths = export_run(run(config, make_grid()), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == expected
