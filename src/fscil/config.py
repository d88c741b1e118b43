"""Run configuration: JSON-serializable, schema-checked.

`TrainingConfig` defaults are the published large-scale values; call
`desk_profile()` for settings sized to seconds-scale synthetic runs.  Every
hyperparameter that the protocol consumes has a named key here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

from .backbone import BackboneConfig
from .errors import ArgumentError


# by the type of a field's default: the JSON types the field accepts (a bool is not an int), and their name
_ACCEPTED = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string"), tuple: ((list, tuple), "an array"), type(None): ((int, type(None)), "an integer or null")}


def _known_keys(cls, data, where: str):
    if not isinstance(data, dict):
        raise ArgumentError(f"{where} must be a JSON object, got {json.dumps(data)}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ArgumentError(f"unknown {cls.__name__} keys: {sorted(unknown)}")


def _from_mapping(cls, data, section: str):
    _known_keys(cls, data, f"config section {section!r}")
    for f in fields(cls):
        accepted, name = _ACCEPTED[type(f.default)]
        if f.name in data and type(data[f.name]) not in accepted:
            raise ArgumentError(f"{section}.{f.name} must be {name}, got {json.dumps(data[f.name])}")
    return cls(**data)


@dataclass
class TrainingConfig:
    optimizer: str = "adamw"

    # self-supervised phase (teacher/student distillation)
    ssl_lr: float = 2.5e-4
    ssl_weight_decay: float = 0.04
    ssl_weight_decay_end: float = 0.4
    ssl_epochs: int = 500
    ssl_early_stop: int = 30
    ssl_batch_size: int = 70
    teacher_temp: float = 0.07
    warmup_teacher_temp: float = 0.04
    warmup_fraction: float = 0.1
    student_temp: float = 0.1
    ema_momentum: float = 0.996
    center_momentum: float = 0.9
    n_local_crops: int = 4
    global_crop_scale: tuple = (0.6, 1.0)
    local_crop_scale: tuple = (0.2, 0.5)
    proj_hidden_dim: int = 64
    proj_dim: int = 32

    # supervised phase on the base task
    sup_lr: float = 1e-5
    sup_classifier_lr: float = 0.01
    sup_plateau_patience: int = 10
    sup_plateau_factor: float = 0.25
    sup_min_lr: float = 3e-5
    sup_epochs: int = 1000
    sup_early_stop: int = 30
    sup_batch_size: int = 230
    sup_weight_decay: float = 3e-6

    # incremental sessions (delta parameters + new classifier rows)
    inc_lr: float = 0.01
    inc_plateau_patience: int = 5
    inc_plateau_factor: float = 0.25
    inc_min_lr: float = 0.0
    inc_epochs_base: int = 4
    inc_epochs: int = 15
    inc_batch_size: int = 200
    inc_weight_decay: float = 0.0
    delta_params: bool = True  # False: no prefixes; later sessions fine-tune the backbone instead
    prefix_len: int = 16
    outliers_inc: int = 1

    # prediction network
    prednet_lr: float = 1e-3
    prednet_epochs: int = 300
    prednet_batch_size: int = 100
    prednet_weight_decay: float = 0.0
    prediction_net: bool = True  # False: no rectification; new head rows start at the enriched class means

    # stochastic classifier
    head_temperature: float = 16.0
    head_offset: float = 4.0
    head_noise_train: bool = True

    def __post_init__(self):
        self.global_crop_scale = tuple(self.global_crop_scale)
        self.local_crop_scale = tuple(self.local_crop_scale)


def desk_profile(**overrides) -> TrainingConfig:
    """Training settings sized for synthetic desk-scale runs."""
    cfg = TrainingConfig(
        ssl_epochs=30,
        ssl_early_stop=10,
        ssl_batch_size=64,
        ssl_lr=1e-3,
        sup_lr=1e-3,
        sup_classifier_lr=0.02,
        sup_epochs=50,
        sup_early_stop=12,
        sup_batch_size=64,
        sup_plateau_patience=6,
        inc_batch_size=32,
        prednet_epochs=150,
        prednet_batch_size=32,
    )
    return replace(cfg, **overrides)


@dataclass
class DatasetConfig:
    kind: str = "blobs"  # blobs | idx
    # blobs; seed None derives the blob seed from the run seed
    classes: int = 18
    dim: int = 16
    train_per_class: int = 40
    test_per_class: int = 20
    separation: float = 8.0
    seed: int | None = None
    # idx
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""

    def __post_init__(self):
        if self.kind not in ("blobs", "idx"):
            raise ArgumentError(f"dataset kind must be 'blobs' or 'idx', got {self.kind!r}")


@dataclass
class SplitConfig:
    base_classes: int = 10
    ways: int = 2
    shots: int = 5


@dataclass
class RunConfig:
    model: BackboneConfig = field(default_factory=BackboneConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    metric: str = "auto"  # auto | mahalanobis | euclidean; auto = euclidean iff shots == 1

    def __post_init__(self):
        if self.metric not in ("auto", "mahalanobis", "euclidean"):
            raise ArgumentError(f"metric must be auto/mahalanobis/euclidean, got {self.metric!r}")

    def resolved_metric(self) -> str:
        if self.metric != "auto":
            return self.metric
        return "euclidean" if self.split.shots == 1 else "mahalanobis"

    def to_dict(self) -> dict:
        """Nested plain dict; tuple fields stay tuples, which JSON writes as lists."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        _known_keys(cls, data, "a run config")
        return cls(
            model=_from_mapping(BackboneConfig, data.get("model", {}), "model"),
            training=_from_mapping(TrainingConfig, data.get("training", {}), "training"),
            dataset=_from_mapping(DatasetConfig, data.get("dataset", {}), "dataset"),
            split=_from_mapping(SplitConfig, data.get("split", {}), "split"),
            metric=data.get("metric", "auto"),
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# `--without` name -> the `TrainingConfig` values that switch that component off
ABLATION_TOGGLES = {
    "ssl": {"ssl_epochs": 0},
    "prediction_net": {"prediction_net": False},
    "stochastic_head": {"head_noise_train": False},
    "delta_params": {"delta_params": False},
}


def ablated(config: RunConfig, name: str) -> RunConfig:
    """`config` with the component `name` switched off."""
    if name not in ABLATION_TOGGLES:
        raise ArgumentError(f"unknown ablation toggle {name!r}; expected one of {sorted(ABLATION_TOGGLES)}")
    return replace(config, training=replace(config.training, **ABLATION_TOGGLES[name]))


def toy_fscil_config() -> RunConfig:
    """Synthetic-blob protocol: 10 base classes + 4 sessions of 2-way 5-shot."""
    return RunConfig(training=desk_profile(prefix_len=8))
