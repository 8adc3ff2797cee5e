"""Baseline frameworks the evaluation compares against (see DESIGN.md)."""

from .optensor import (Device, OpTensor, abs_, add, bmm, cat, div, exp,
                       flatten, index_select, leaky_relu, log, matmul,
                       max_, maximum, mean, mul, narrow, neg, pad, prod,
                       relu, reshape, scatter_add, scatter_max, sigmoid,
                       sliding_window, softmax, stack, sub, sum_, tanh,
                       tensor, transpose, where)
from .vmap import vmap

__all__ = [
    "Device", "OpTensor", "abs_", "add", "bmm", "cat", "div", "exp",
    "flatten", "index_select", "leaky_relu", "log", "matmul", "max_",
    "maximum", "mean", "mul", "narrow", "neg", "pad", "prod", "relu",
    "reshape", "scatter_add", "scatter_max", "sigmoid", "sliding_window",
    "softmax", "stack", "sub", "sum_", "tensor", "transpose", "vmap",
    "where",
]
