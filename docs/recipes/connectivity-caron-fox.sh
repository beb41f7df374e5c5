#!/bin/sh
# The Caron-Fox kernel W = 1 - exp(-2 g(x) g(y)), g = exp(-x): the largest component spans nearly every visible vertex as nu doubles; the final level must clear 0.95.
graphex connectivity --graphex '{"family": "caron-fox"}' --nus 25,50,100,200 --replicates 50 --seed 0 --threshold 0.95
