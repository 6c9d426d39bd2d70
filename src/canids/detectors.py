"""Uniform detector contract over the eight models.

Every detector exposes fit(train, val=None) / score(X) / predict(X) where
score is a continuous anomaly measure (higher = more anomalous) and
predict thresholds it. Models that mix units (knn, lof, rc, dae) fit a
standardizer on their training rows; tree models consume raw features.

Each detector is a dataclass whose init fields are its constructor
keywords. make_detector, params(), the fit and the model file all read that
one declaration, and one _check_params per detector refuses bad values, at
construction and again at fit. A model file holds the params, the seed, the
fitted width and the fitted state, and load_detector rebuilds the detector
through make_detector before it restores the state.

The registry maps CLI names (dt, knn, rf, gbt, rc, lof, iforest, dae) to
factories; register_detector() lets tests add stubs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from . import autoencoder as ae
from .density import (
    GaussianModel,
    IsoForestModel,
    fit_isolation_forest,
    fit_robust_covariance,
    iso_score,
    mahalanobis_score,
)
from .errors import (
    CanidsError,
    ConfigError,
    EmptyData,
    IoError,
    MissingLabels,
    UnfitModel,
    WrongWidth,
)
from .features import FeatureMatrix, Standardizer, fit_standardizer
from .model_io import (
    decode_array,
    decode_float,
    encode_array,
    encode_float,
    load_model,
    save_model,
)
from .neighbors import LocalOutlierFactor, NeighborIndex
from .trees import (
    FlatTree,
    GbtModel,
    RandomForest,
    TreeNode,
    feature_importance,
    fit_cart,
    fit_gbt,
    fit_random_forest,
)

SUPERVISED_MODELS = ("dt", "knn", "rf", "gbt")
SEMI_SUPERVISED_MODELS = ("rc", "lof", "iforest", "dae")
ALL_MODELS = SUPERVISED_MODELS + SEMI_SUPERVISED_MODELS


def derive_seed(master: int, name: str) -> int:
    """Stable per-task seed: independent of execution order, so serial and
    threaded runs produce identical models."""
    ss = np.random.SeedSequence([master & 0xFFFFFFFF, zlib.crc32(name.encode())])
    return int(ss.generate_state(1)[0])


def _require_labels(train: FeatureMatrix, name: str) -> np.ndarray:
    if train.labels is None:
        raise MissingLabels(f"{name} is supervised and needs labeled training data")
    return np.asarray(train.labels)


def _check_refs_width(index: NeighborIndex, n_features: int) -> None:
    if index.width != n_features:
        raise WrongWidth(f"refs have {index.width} columns, "
                         f"n_features is {n_features}")


def _fitted(default=None):
    """A fitted attribute: not a constructor keyword, set by fit or load."""
    return field(default=default, init=False)


@dataclass(eq=False)
class Detector:
    """Base contract; subclasses set name/supervised/standardized and
    implement _fit, _score and decide, plus _state/_restore to persist.
    predict defaults to thresholding score."""

    name = "base"
    supervised = False
    standardized = False  # fit a z-score standardizer on the training rows

    seed: int = field(default=0, kw_only=True)

    def __post_init__(self):
        self._check_params()
        self.fitted = False
        self.n_features = 0
        self.standardizer: Standardizer | None = None

    def _check_params(self) -> None:
        """ConfigError for a param value the detector refuses; run when the
        detector is made and again by fit, so a field set later is checked
        too."""

    def fit(self, train: FeatureMatrix, val: FeatureMatrix | None = None):
        self._check_params()
        if train.n_rows == 0:
            raise EmptyData(f"{self.name}: empty training matrix")
        self.n_features = train.n_cols
        if self.standardized:
            self.standardizer = fit_standardizer(train)
            train = self.standardizer.apply(train)
        self._fit(train, val)
        self.fitted = True
        return self

    def score(self, X) -> np.ndarray:
        """Anomaly scores of the rows of X, which must have the fitted
        width; standardized first if the detector standardizes."""
        self._check_fitted()
        X = np.atleast_2d(np.asarray(getattr(X, "values", X), dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise WrongWidth(f"{self.name}: {X.shape[1]} columns, "
                             f"fitted on {self.n_features}")
        if self.standardizer is not None:
            X = self.standardizer.transform(X)
        return self._score(X)

    def decide(self, scores: np.ndarray) -> np.ndarray:
        """Thresholding rule mapping anomaly scores to 0/1 predictions."""
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:
        return self.decide(self.score(X))

    def _keywords(self) -> dict:
        """The constructor keywords and their values, seed excluded."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.init and f.name != "seed"}

    def params(self) -> dict:
        return self._keywords()

    def _check_fitted(self):
        if not self.fitted:
            raise UnfitModel(f"{self.name} is not fitted")

    # fitted state as JSON-ready values; detectors with model files override
    def _state(self) -> dict:
        raise NotImplementedError(f"{self.name} does not serialize")

    def _restore(self, state: dict) -> None:
        raise NotImplementedError(f"{self.name} does not serialize")


@dataclass(eq=False)
class DecisionTreeDetector(Detector):
    name = "dt"
    supervised = True

    max_depth: int = 12
    min_samples_leaf: int = 1
    cutoff: float = 0.5
    tree: TreeNode | None = _fitted()

    def _fit(self, train, val=None):
        y = _require_labels(train, self.name)
        self.tree = fit_cart(train.values, y, self.max_depth,
                             self.min_samples_leaf)

    def _score(self, X):
        return FlatTree.from_node(self.tree).route(X)

    def decide(self, scores: np.ndarray) -> np.ndarray:
        return (scores >= self.cutoff).astype(np.int8)

    def _state(self):
        return {"tree": self.tree.to_dict()}

    def _restore(self, state):
        self.tree = TreeNode.from_dict(state["tree"], self.n_features)


@dataclass(eq=False)
class KnnDetector(Detector):
    name = "knn"
    supervised = True
    standardized = True

    k: int = 5
    index: NeighborIndex | None = _fitted()
    labels: np.ndarray | None = _fitted()

    def _fit(self, train, val=None):
        self.labels = _require_labels(train, self.name)
        self.index = NeighborIndex(train.values)

    def _score(self, X):
        _, ids = self.index.query(X, min(self.k, self.index.n))
        return self.labels[ids].mean(axis=1)

    def decide(self, scores: np.ndarray) -> np.ndarray:
        # vote ties go to anomaly
        return (scores >= 0.5).astype(np.int8)

    def _state(self):
        return {"refs": encode_array(self.index.refs),
                "labels": [int(v) for v in self.labels]}

    def _restore(self, state):
        self.index = NeighborIndex(decode_array(state["refs"]))
        _check_refs_width(self.index, self.n_features)
        labels = state["labels"]
        if not isinstance(labels, list) or len(labels) != self.index.n:
            raise IoError(f"labels must be a list of {self.index.n} entries, "
                          "one per reference row")
        if any(type(v) is not int or v not in (0, 1) for v in labels):
            raise IoError("labels must be the integers 0 and 1")
        self.labels = np.array(labels, dtype=np.int8)


@dataclass(eq=False)
class RandomForestDetector(Detector):
    name = "rf"
    supervised = True

    n_trees: int = 50
    max_depth: int = 12
    features_per_split: int | None = None
    bootstrap_fraction: float = 1.0
    cutoff: float = 0.5
    model: RandomForest | None = _fitted()

    def _check_params(self):
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ConfigError("features_per_split must be >= 1 or None")

    def _fit(self, train, val=None):
        y = _require_labels(train, self.name)
        self.model = fit_random_forest(train.values, y, self)

    def _score(self, X):
        return self.model.predict_proba(X)

    def decide(self, scores: np.ndarray) -> np.ndarray:
        return (scores >= self.cutoff).astype(np.int8)

    def _state(self):
        return {"model": self.model.to_payload()}

    def _restore(self, state):
        self.model = RandomForest.from_payload(state["model"], self.n_features)


@dataclass(eq=False)
class GbtDetector(Detector):
    name = "gbt"
    supervised = True

    rounds: int = 200
    learning_rate: float = 0.3
    max_depth: int = 6
    lam: float = 1.0
    gamma_split: float = 0.0
    min_child_weight: float = 1.0
    subsample: float = 1.0
    colsample: float = 1.0
    base_score: float = 0.5
    cutoff: float = 0.5
    model: GbtModel | None = _fitted()

    def _check_params(self):
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ConfigError("learning_rate must lie in (0, 1]")
        if self.lam < 0 or self.gamma_split < 0:
            raise ConfigError("lam and gamma_split must be >= 0")
        if not 0 < self.base_score < 1:
            raise ConfigError("base_score must lie in (0, 1)")

    def _fit(self, train, val=None):
        y = _require_labels(train, self.name)
        self.model = fit_gbt(train.values, y, self)

    def _score(self, X):
        return self.model.predict_proba(X)

    def decide(self, scores: np.ndarray) -> np.ndarray:
        return (scores >= self.cutoff).astype(np.int8)

    def importance(self) -> np.ndarray:
        self._check_fitted()
        return feature_importance(self.model)

    def _state(self):
        return {"model": self.model.to_payload()}

    def _restore(self, state):
        self.model = GbtModel.from_payload(state["model"], self.n_features,
                                           self.learning_rate)


@dataclass(eq=False)
class RcDetector(Detector):
    name = "rc"
    standardized = True

    support_fraction: float = 0.75
    cutoff_level: float = 0.99
    model: GaussianModel | None = _fitted()

    def _fit(self, train, val=None):
        self.model = fit_robust_covariance(
            train.values, self.support_fraction, self.cutoff_level,
            seed=self.seed
        )

    def _score(self, X):
        return mahalanobis_score(self.model, X)

    def decide(self, scores: np.ndarray) -> np.ndarray:
        return (scores > self.model.cutoff).astype(np.int8)

    def _state(self):
        return {"mean": encode_array(self.model.mean),
                "cov": encode_array(self.model.cov),
                "cov_inv": encode_array(self.model.cov_inv),
                "cutoff": encode_float(self.model.cutoff)}

    def _restore(self, state):
        self.model = GaussianModel(
            decode_array(state["mean"]), decode_array(state["cov"]),
            decode_array(state["cov_inv"]), decode_float(state["cutoff"]),
            support=np.array([], dtype=np.int64),
        )


@dataclass(eq=False)
class LofDetector(Detector):
    name = "lof"
    standardized = True

    k: int = 20
    threshold: float = 1.5
    max_fit_samples: int | None = 16384
    lof: LocalOutlierFactor | None = _fitted()

    def _fit(self, train, val=None):
        Z = train.values
        if self.max_fit_samples is not None and len(Z) > self.max_fit_samples:
            rng = np.random.default_rng(np.random.SeedSequence(self.seed))
            rows = np.sort(rng.choice(len(Z), self.max_fit_samples,
                                      replace=False))
            Z = Z[rows]
        self.lof = LocalOutlierFactor(self.k).fit(Z)

    def _score(self, X):
        return self.lof.score(X)

    def decide(self, scores: np.ndarray) -> np.ndarray:
        return (scores > self.threshold).astype(np.int8)

    def _state(self):
        return {"refs": encode_array(self.lof.index.refs),
                "ref_kdist": encode_array(self.lof.ref_kdist),
                "ref_lrd": encode_array(self.lof.ref_lrd),
                "ref_lof": encode_array(self.lof.ref_lof)}

    def _restore(self, state):
        self.lof = LocalOutlierFactor.from_state(
            self.k, decode_array(state["refs"]),
            decode_array(state["ref_kdist"]), decode_array(state["ref_lrd"]),
            decode_array(state["ref_lof"]),
        )
        _check_refs_width(self.lof.index, self.n_features)


@dataclass(eq=False)
class IsoForestDetector(Detector):
    name = "iforest"

    n_trees: int = 100
    subsample: int = 256
    threshold: float = 0.6
    model: IsoForestModel | None = _fitted()

    def _fit(self, train, val=None):
        psi = min(self.subsample, train.n_rows)
        self.model = fit_isolation_forest(train.values, self.n_trees, psi,
                                          self.seed)

    def _score(self, X):
        return iso_score(self.model, X)

    def decide(self, scores: np.ndarray) -> np.ndarray:
        return (scores > self.threshold).astype(np.int8)

    def _state(self):
        return {"model": self.model.to_payload()}

    def _restore(self, state):
        self.model = IsoForestModel.from_payload(state["model"],
                                                 self.n_features)


# without labeled validation the threshold is this percentile of train losses
_DAE_FALLBACK = ae.ThresholdConfig(p=95.0, gamma=1.0)


@dataclass(eq=False)
class DaeDetector(Detector):
    name = "dae"
    standardized = True

    hidden: tuple[int, ...] = (48, 24)
    bottleneck: int = 12
    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    net: ae.AutoencoderNet | None = _fitted()
    threshold_config: ae.ThresholdConfig | None = _fitted()
    threshold: float = _fitted(0.0)
    loss_trace: list[float] = field(default_factory=list, init=False)

    def __post_init__(self):
        super().__post_init__()
        self.hidden = tuple(self.hidden)

    def _check_params(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ConfigError("learning rate must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")

    def _fit(self, train, val=None):
        self.net = ae.make_autoencoder(
            train.n_cols, self.hidden, self.bottleneck, seed=self.seed
        )
        # train rejects anomaly-labeled rows
        self.net, self.loss_trace = ae.train(self.net, train, self)
        val_usable = (
            val is not None and val.labels is not None
            and np.any(np.asarray(val.labels) == 1)
            and np.any(np.asarray(val.labels) == 0)
        )
        if val_usable:
            val_z = self.standardizer.apply(val)
            self.threshold_config, _ = ae.fine_tune_threshold(self.net, val_z)
            normal_losses = ae.reconstruction_losses(
                self.net, val_z.values[np.asarray(val_z.labels) == 0]
            )
        else:
            self.threshold_config = _DAE_FALLBACK
            normal_losses = ae.reconstruction_losses(self.net, train.values)
        self.threshold = ae.compute_threshold(normal_losses,
                                              self.threshold_config)

    def _score(self, X):
        return ae.reconstruction_losses(self.net, X)

    def decide(self, scores: np.ndarray) -> np.ndarray:
        # strictly beyond the threshold; an exact tie stays normal
        return (scores > self.threshold).astype(np.int8)

    def params(self) -> dict:
        tc = self.threshold_config
        return {**self._keywords(), "hidden": list(self.hidden),
                "threshold_p": tc.p if tc else None,
                "threshold_gamma": tc.gamma if tc else None}

    def _state(self):
        return {"net": ae.net_to_payload(self.net),
                "threshold": ae.threshold_to_payload(self.threshold_config,
                                                     self.threshold)}

    def _restore(self, state):
        self.net = ae.net_from_payload(state["net"])
        self.threshold_config, self.threshold = ae.threshold_from_payload(
            state["threshold"]
        )


_REGISTRY: dict[str, type[Detector]] = {
    "dt": DecisionTreeDetector,
    "knn": KnnDetector,
    "rf": RandomForestDetector,
    "gbt": GbtDetector,
    "rc": RcDetector,
    "lof": LofDetector,
    "iforest": IsoForestDetector,
    "dae": DaeDetector,
}


def register_detector(name: str, cls: type[Detector]) -> None:
    _REGISTRY[name] = cls


def detector_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def make_detector(name: str, params: dict | None = None, seed: int = 0) -> Detector:
    """A detector of kind name; ConfigError if params holds a keyword
    that the kind does not declare."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; known: {sorted(_REGISTRY)}")
    cls = _REGISTRY[name]
    kwargs = dict(params or {})
    seed = kwargs.pop("seed", seed)
    declared = [f.name for f in fields(cls) if f.init and f.name != "seed"]
    for key in kwargs:
        if key not in declared:
            raise ConfigError(f"unknown {name} param {key!r}; known: {declared}")
    return cls(seed=seed, **kwargs)


def save_detector(path, det: Detector) -> None:
    """Model file holding det's keywords, seed, fitted width and state."""
    det._check_fitted()
    state = det._state()
    if det.standardizer is not None:
        state["standardizer"] = {"mean": encode_array(det.standardizer.mean),
                                 "std": encode_array(det.standardizer.std)}
    save_model(path, det.name, {"params": det._keywords(), "seed": det.seed,
                                "n_features": det.n_features, "state": state})


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise IoError(f"{what} is not an object")
    return value


def load_detector(path) -> Detector:
    """The detector a model file holds; IoError naming the file if it names
    an unknown kind or param, lacks a key its kind needs, holds a part that
    is not an object where one belongs, or holds state that does not
    rebuild its model."""
    kind, payload = load_model(path)
    if kind not in _REGISTRY:
        raise IoError(f"model file {path}: unknown model kind {kind!r}")
    try:
        det = make_detector(kind, _object(payload["params"], "params"),
                            payload["seed"])
        state = _object(payload["state"], "state")
        det.n_features = payload["n_features"]
        if not isinstance(det.n_features, int) or det.n_features < 1:
            raise IoError(f"n_features {det.n_features!r} is not a width")
        if det.standardized:
            s = _object(state["standardizer"], "standardizer")
            mean, std = decode_array(s["mean"]), decode_array(s["std"])
            for name, a in (("mean", mean), ("std", std)):
                if a.shape != (det.n_features,):
                    raise IoError(f"standardizer {name} has shape "
                                  f"{list(a.shape)}, n_features is "
                                  f"{det.n_features}")
            det.standardizer = Standardizer(mean, std)
        det._restore(state)
    except KeyError as exc:
        raise IoError(f"model file {path}: {kind} model has no "
                      f"{exc.args[0]!r} key") from exc
    except CanidsError as exc:
        raise IoError(f"model file {path}: {exc}") from exc
    det.fitted = True
    return det
