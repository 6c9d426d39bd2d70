"""Uniform detector contract over the eight models.

Every detector exposes fit(train, val=None) / score(X) / predict(X) where
score is a continuous anomaly measure (higher = more anomalous) and
predict thresholds it. Models that mix units (knn, lof, rc, dae) fit a
standardizer on their training rows; tree models consume raw features.

Each detector is a dataclass whose init fields are its constructor
keywords. make_detector, params(), the fit and the model file all read that
one declaration, and one _check_params per detector refuses bad values, at
construction and again at fit. Only fit and score check and convert input;
the model layers take float64 2-D arrays and 0/1 labels as given. A model
file holds the params, the seed, the fitted width and the fitted state, and
load_detector rebuilds the detector through make_detector before it
restores the state.

The registry maps CLI names (dt, knn, rf, gbt, rc, lof, iforest, dae) to
factories.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields, replace

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
    NonBinaryLabels,
    UnfitModel,
    WrongWidth,
)
from .features import FeatureMatrix, Standardizer, fit_standardizer
from .metrics import percentile_cutoff, tune_cutoff
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
    feature_importance,
    fit_cart,
    fit_gbt,
    fit_random_forest,
    gbt_margins,
    mean_route,
    route_trees,
    trees_from_payload,
    trees_to_payload,
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
    y = np.asarray(train.labels)
    if not np.all((y == 0) | (y == 1)):
        raise NonBinaryLabels(f"{name} labels must be 0/1")
    return y


def _check_refs_width(index: NeighborIndex, n_features: int) -> None:
    if index.width != n_features:
        raise WrongWidth(f"refs have {index.width} columns, "
                         f"n_features is {n_features}")


def _load_trees(state: dict, width: int, param: str, count: int
                ) -> list[FlatTree]:
    """The trees state holds, fitted on width columns; IoError unless
    there are count of them, count being what param says."""
    trees = trees_from_payload(state, width)
    if len(trees) != count:
        raise IoError(f"{len(trees)} trees, {param} is {count}")
    return trees


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
        """Fit on train, refused without rows or columns, as float64; val,
        if given, must have train's width."""
        self._check_params()
        if train.values.size == 0:
            raise EmptyData(f"{self.name}: empty training matrix")
        if val is not None and val.n_cols != train.n_cols:
            raise WrongWidth(f"{self.name}: validation has {val.n_cols} "
                             f"columns, training {train.n_cols}")
        train = replace(train, values=np.asarray(train.values, np.float64))
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
    trees: list[FlatTree] = _fitted()  # the one tree

    def _fit(self, train, val=None):
        y = _require_labels(train, self.name)
        self.trees = [fit_cart(train.values, y, self.max_depth,
                               self.min_samples_leaf)]

    def _score(self, X):
        return route_trees(self.trees, X)[0]

    def decide(self, scores: np.ndarray) -> np.ndarray:
        return (scores >= self.cutoff).astype(np.int8)

    def _state(self):
        return trees_to_payload(self.trees)

    def _restore(self, state):
        self.trees = _load_trees(state, self.n_features, "dt's tree count", 1)


@dataclass(eq=False)
class KnnDetector(Detector):
    name = "knn"
    supervised = True
    standardized = True

    k: int = 5
    index: NeighborIndex | None = _fitted()
    labels: np.ndarray | None = _fitted()

    def _check_params(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")

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
                "labels": self.labels.astype(np.int64).tolist()}

    def _restore(self, state):
        self.index = NeighborIndex(decode_array(state["refs"]))
        _check_refs_width(self.index, self.n_features)
        labels = state["labels"]
        if not isinstance(labels, list) or len(labels) != self.index.n:
            raise IoError(f"labels must be a list of {self.index.n} entries, "
                          "one per reference row")
        # JSON true and 1.0 equal 1 but are not integer labels
        if set(map(type, labels)) != {int} or not set(labels) <= {0, 1}:
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
    trees: list[FlatTree] = _fitted()

    def _check_params(self):
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ConfigError("features_per_split must be >= 1 or None")

    def _fit(self, train, val=None):
        y = _require_labels(train, self.name)
        self.trees = fit_random_forest(train.values, y, self)

    def _score(self, X):
        return mean_route(self.trees, X)

    def decide(self, scores: np.ndarray) -> np.ndarray:
        return (scores >= self.cutoff).astype(np.int8)

    def _state(self):
        return trees_to_payload(self.trees)

    def _restore(self, state):
        self.trees = _load_trees(state, self.n_features, "n_trees",
                                 self.n_trees)


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
    trees: list[FlatTree] = _fitted()
    loss_trace: list[float] = field(default_factory=list, init=False)

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
        self.trees, self.loss_trace = fit_gbt(train.values, y, self)

    def _score(self, X):
        return ae.sigmoid(gbt_margins(self, X))

    def decide(self, scores: np.ndarray) -> np.ndarray:
        return (scores >= self.cutoff).astype(np.int8)

    def importance(self) -> np.ndarray:
        self._check_fitted()
        return feature_importance(self.trees, self.n_features)

    def _state(self):
        return {**trees_to_payload(self.trees),
                "loss_trace": [encode_float(v) for v in self.loss_trace]}

    def _restore(self, state):
        self.trees = _load_trees(state, self.n_features, "rounds", self.rounds)
        trace = state["loss_trace"]
        if not isinstance(trace, list) or len(trace) != self.rounds + 1:
            raise IoError(f"loss_trace must list rounds + 1 = "
                          f"{self.rounds + 1} values")
        self.loss_trace = [decode_float(v) for v in trace]


@dataclass(eq=False)
class RcDetector(Detector):
    name = "rc"
    standardized = True

    support_fraction: float = 0.75
    cutoff_level: float = 0.99
    model: GaussianModel | None = _fitted()

    def _check_params(self):
        if not 0.5 < self.support_fraction <= 1.0:
            raise ConfigError("support_fraction must lie in (0.5, 1]")
        if not 0 < self.cutoff_level < 1:
            raise ConfigError("cutoff_level must lie in (0, 1)")

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
        n = self.n_features
        arrays = {key: decode_array(state[key])
                  for key in ("mean", "cov", "cov_inv")}
        for key, a in arrays.items():
            need = (n,) if key == "mean" else (n, n)
            if a.shape != need:
                raise IoError(f"{key} has shape {list(a.shape)}, "
                              f"n_features {n} needs {list(need)}")
        self.model = GaussianModel(**arrays, cutoff=decode_float(state["cutoff"]))


@dataclass(eq=False)
class LofDetector(Detector):
    name = "lof"
    standardized = True

    k: int = 20
    threshold: float = 1.5
    max_fit_samples: int | None = 16384
    lof: LocalOutlierFactor | None = _fitted()

    def _check_params(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")

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
                "ref_lrd": encode_array(self.lof.ref_lrd)}

    def _restore(self, state):
        self.lof = LocalOutlierFactor.from_state(
            self.k, decode_array(state["refs"]),
            decode_array(state["ref_kdist"]), decode_array(state["ref_lrd"]),
        )
        _check_refs_width(self.lof.index, self.n_features)


@dataclass(eq=False)
class IsoForestDetector(Detector):
    name = "iforest"

    n_trees: int = 100
    subsample: int = 256
    threshold: float = 0.6
    model: IsoForestModel | None = _fitted()

    def _check_params(self):
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
        if self.subsample < 2:
            raise ConfigError("subsample must be >= 2")

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
        model = _object(state["model"], "model")
        psi = model["subsample"]
        if type(psi) is not int or psi < 2:
            raise IoError(f"subsample {psi!r} is not a size of at least 2")
        self.model = IsoForestModel(
            psi, _load_trees(model, self.n_features, "n_trees", self.n_trees))


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
    threshold_p: float | None = _fitted()
    threshold_gamma: float | None = _fitted()
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
        if train.labels is not None and np.any(np.asarray(train.labels) == 1):
            raise ConfigError("dae trains on normal rows only")
        self.net = ae.make_autoencoder(
            train.n_cols, self.hidden, self.bottleneck, seed=self.seed
        )
        self.net, self.loss_trace = ae.train(self.net, train.values, self)
        y = np.asarray([] if val is None or val.labels is None else val.labels)
        if np.any(y == 0) and np.any(y == 1):
            # each row's loss is computed alone, so the normal rows' losses
            # are those a pass over the normal rows alone would give
            val_z = self.standardizer.apply(val)
            (self.threshold_p, self.threshold_gamma), self.threshold, _ = (
                tune_cutoff(ae.reconstruction_losses(self.net, val_z.values),
                            y))
        else:
            # without validation holding both classes: the 95th percentile
            # of the training losses
            self.threshold_p, self.threshold_gamma = 95.0, 1.0
            self.threshold = percentile_cutoff(
                ae.reconstruction_losses(self.net, train.values), 95.0, 1.0)

    def _score(self, X):
        return ae.reconstruction_losses(self.net, X)

    def decide(self, scores: np.ndarray) -> np.ndarray:
        # strictly beyond the threshold; an exact tie stays normal
        return (scores > self.threshold).astype(np.int8)

    def params(self) -> dict:
        return {**self._keywords(), "hidden": list(self.hidden),
                "threshold_p": self.threshold_p,
                "threshold_gamma": self.threshold_gamma}

    def _state(self):
        return {"net": ae.net_to_payload(self.net),
                "threshold": {"p": encode_float(self.threshold_p),
                              "gamma": encode_float(self.threshold_gamma),
                              "threshold": encode_float(self.threshold)}}

    def _restore(self, state):
        self.net = ae.net_from_payload(_object(state["net"], "net"))
        if self.net.input_width != self.n_features:
            raise IoError(f"net takes {self.net.input_width} columns, "
                          f"n_features is {self.n_features}")
        t = _object(state["threshold"], "threshold")
        self.threshold_p, self.threshold_gamma, self.threshold = (
            decode_float(t[k]) for k in ("p", "gamma", "threshold"))
        if not 0 < self.threshold_p <= 100 or not self.threshold_gamma >= 0:
            raise IoError(f"threshold p {self.threshold_p} is not in (0, 100] "
                          f"or gamma {self.threshold_gamma} is below 0")


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


def check_param_names(name: str, keys, what: str = "param") -> None:
    """ConfigError if a key is not a constructor keyword of kind name;
    KeyError if name is not a registered kind."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; known: {sorted(_REGISTRY)}")
    declared = [f.name for f in fields(_REGISTRY[name]) if f.init]
    for key in keys:
        if key not in declared:
            raise ConfigError(f"unknown {name} {what} {key!r}; "
                              f"known: {declared}")


def make_detector(name: str, params: dict | None = None, seed: int = 0) -> Detector:
    """A detector of kind name; ConfigError if params holds a keyword
    that the kind does not declare."""
    kwargs = dict(params or {})
    seed = kwargs.pop("seed", seed)
    check_param_names(name, kwargs)
    return _REGISTRY[name](seed=seed, **kwargs)


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
    rebuild its model or holds another number of trees than its params
    say."""
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
