"""Scalar reference implementations the vectorized engine is checked against.

:class:`ReferenceFeatureVideo` computes cheap frame features one frame and
one track at a time, memoised per frame — the straightforward definition the
columnar :meth:`SyntheticVideo.frame_features` must reproduce bit for bit.
It is a drop-in video (pass it to ``BlazeIt.register_video``), so equivalence
tests and ``benchmarks/bench_perf_suite.py`` can run a whole engine on the
reference path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.video.synthetic import (
    FEATURE_CHANNELS,
    FEATURE_DIM,
    FEATURE_GRID,
    SyntheticVideo,
    Track,
    VideoSpec,
)


class ReferenceFeatureVideo(SyntheticVideo):
    """A :class:`SyntheticVideo` whose features come from the scalar loop."""

    def __init__(self, spec: VideoSpec, tracks: list[Track]) -> None:
        super().__init__(spec, tracks)
        self._reference_memo: dict[int, np.ndarray] = {}

    @classmethod
    def of(cls, video: SyntheticVideo) -> "ReferenceFeatureVideo":
        """The same video (spec and tracks) with reference features."""
        return cls(video.spec, list(video.tracks))

    def frame_features(self, frame_indices: np.ndarray | list[int]) -> np.ndarray:
        indices = np.asarray(frame_indices, dtype=np.int64)
        out = np.zeros((indices.size, FEATURE_DIM), dtype=np.float64)
        for row, frame_index in enumerate(indices):
            out[row] = self._features_for(int(frame_index))
        return out

    def _features_for(self, frame_index: int) -> np.ndarray:
        cached = self._reference_memo.get(frame_index)
        if cached is not None:
            return cached
        self._check_frame(frame_index)
        grid = FEATURE_GRID
        cell_w = self.spec.width / grid
        cell_h = self.spec.height / grid
        features = np.zeros(FEATURE_DIM, dtype=np.float64)
        frame_area = float(self.spec.width * self.spec.height)
        total_occupancy = 0.0
        total_area = 0.0
        for track in self.tracks_at(frame_index):
            box = track.box_at(frame_index).clip_to(self.spec.width, self.spec.height)
            center = box.center
            col = min(grid - 1, max(0, int(center.x // cell_w)))
            row = min(grid - 1, max(0, int(center.y // cell_h)))
            cell = row * grid + col
            area_fraction = box.area / frame_area
            # Colour weight: the object's linear size fraction (square root
            # of its area fraction), capped at 1.
            weight = min(1.0, 3.0 * math.sqrt(area_fraction))
            base = cell * FEATURE_CHANNELS
            features[base + 0] += weight * track.color[0] / 255.0
            features[base + 1] += weight * track.color[1] / 255.0
            features[base + 2] += weight * track.color[2] / 255.0
            features[base + 3] += 1.0
            features[base + 4] += 10.0 * area_fraction
            total_occupancy += 1.0
            total_area += 10.0 * area_fraction
        features[-3] = total_occupancy
        features[-2] = total_area
        # Global brightness: background level plus slow variation over the day.
        features[-1] = 0.5 + 0.1 * math.sin(
            2.0 * math.pi * frame_index / max(self.spec.num_frames, 1)
        )
        noise_rng = np.random.Generator(
            np.random.Philox(key=[self.spec.seed & 0xFFFFFFFF, frame_index])
        )
        features += noise_rng.normal(0.0, 0.03, size=FEATURE_DIM)
        self._reference_memo[frame_index] = features
        return features
