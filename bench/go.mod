module coolstream/bench

go 1.22

require coolstream v0.0.0

replace coolstream => ../
