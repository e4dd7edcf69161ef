module thetis/bench

go 1.22

require thetis v0.0.0

replace thetis => ../
