module pcnn/bench

go 1.22

require pcnn v0.0.0

replace pcnn => ../
