"""Flat key-value configuration files with override support.

Files hold one ``key = value`` pair per line; ``#`` starts a comment.  An
override (``--set key=value``) is read as one such line, by the same parser.
Every resolved configuration can be echoed back as sorted lines so run
artifacts record exactly what produced them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .coding import CODERS, SpatialWeightConfig
from .data import check_count, check_scalar
from .errors import InvalidConfigError


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"line {ln}: expected 'key = value', got '{raw.strip()}'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise InvalidConfigError(f"line {ln}: empty key in '{raw.strip()}'")
        out[key] = value
    return out


def read_config_file(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def apply_overrides(mapping: dict[str, str], overrides) -> dict[str, str]:
    """Merge ``key=value`` strings (e.g. repeated --set flags) on top, each a config line."""
    return {**mapping, **parse_config_text("\n".join(overrides or ()))}


def _parse_bool(v: str) -> bool:
    low = v.strip().lower()
    if low in ("1", "true", "on", "yes"):
        return True
    if low in ("0", "false", "off", "no"):
        return False
    raise InvalidConfigError(f"expected a boolean, got '{v}'")


@dataclass
class PipelineConfig:
    """Everything one classification run needs, with sane defaults."""

    seed: int = 0
    candidates_per_image: int = 50
    patches_per_image: int = 50
    k_nn: int = 50
    spatial_sigma: float = 0.25
    lambda_s: float = 1.0
    lambda_d: float = 1.0
    lambda_b: float = 1.0
    lambda_c: float = 1.0
    dict_size: int = 300
    selection: str = "greedy"       # or "random"
    coder: str = "saco2"            # one of coding.CODERS
    lambda1: float = 0.1
    lambda2: float = 1.0
    weight_kernel: str = "linear"   # or "one-minus-gaussian"
    weight_epsilon: float = 0.1
    weight_scale: float = 0.5
    spatial_weighting: bool = True
    svm_reg: float = 1.0
    svm_epochs: int = 300

    def __post_init__(self):
        if self.selection not in ("greedy", "random"):
            raise InvalidConfigError(f"unknown selection mode '{self.selection}'")
        if self.coder not in CODERS:
            raise InvalidConfigError(f"unknown coder '{self.coder}'")
        # every value meets its stage's rule here, so a bad value fails before any work
        SpatialWeightConfig(self.weight_kernel, self.weight_epsilon, self.weight_scale)
        check_count("seed", self.seed, low=0, error=InvalidConfigError)
        for name in ("candidates_per_image", "patches_per_image", "k_nn", "dict_size", "svm_epochs"):
            check_count(name, getattr(self, name), error=InvalidConfigError)
        for name in ("spatial_sigma", "svm_reg"):
            check_scalar(name, getattr(self, name), positive=True, error=InvalidConfigError)
        for name in ("lambda_s", "lambda_d", "lambda_b", "lambda_c", "lambda1", "lambda2"):
            check_scalar(name, getattr(self, name), error=InvalidConfigError)

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "PipelineConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in mapping.items():
            if key not in fields:
                raise InvalidConfigError(f"unknown config key '{key}'")
            ftype = fields[key].type
            try:
                if ftype == "int":
                    kwargs[key] = int(value)
                elif ftype == "float":
                    kwargs[key] = float(value)
                elif ftype == "bool":
                    kwargs[key] = _parse_bool(value)
                else:
                    kwargs[key] = value
            except ValueError as exc:
                raise InvalidConfigError(f"config key '{key}': {exc}") from exc
        return cls(**kwargs)

    def as_mapping(self) -> dict[str, str]:
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            out[f.name] = str(v).lower() if isinstance(v, bool) else str(v)
        return out

    def echo_lines(self, keys=None) -> list[str]:
        mapping = self.as_mapping()
        return [f"{k} = {mapping[k]}" for k in sorted(keys or mapping)]
