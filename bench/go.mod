module quicksand/bench

go 1.22

require quicksand v0.0.0

replace quicksand => ../
