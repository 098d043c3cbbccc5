let no_images = 1
let manager_failed = 70
let restarter_crashed = 71
let corrupt_image = 72
let blocks_lost = 73
