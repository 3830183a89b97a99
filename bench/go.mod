module recordlayer/bench

go 1.22

require recordlayer v0.0.0

replace recordlayer => ../
